package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a Prometheus text exposition: series key
// (metric name plus its labels sorted by name) → sample value. The
// benchmark reads the servers' own /metrics through it, so a layer's number
// here is the number an operator's dashboard shows.
type promSnapshot map[string]float64

// seriesKey renders the canonical key of a series. labels alternate name,
// value.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([][2]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, [2]string{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p[0])
		b.WriteString(`="`)
		b.WriteString(p[1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// parseProm reads a text exposition. Comment lines and lines that do not
// parse are skipped: a scrape is evidence, not input to validate.
func parseProm(text []byte) promSnapshot {
	out := promSnapshot{}
	for _, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, rest, ok := splitSeries(line)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[seriesKey(name, labels...)] = v
	}
	return out
}

// splitSeries cuts "name{a="x",b="y"} 12" into its name, flat label list
// and the remainder after the series.
func splitSeries(line string) (name string, labels []string, rest string, ok bool) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexAny(line, " \t")
	if brace < 0 || (space >= 0 && space < brace) {
		if space < 0 {
			return "", nil, "", false
		}
		return line[:space], nil, line[space+1:], true
	}
	name = line[:brace]
	i := brace + 1
	for i < len(line) && line[i] != '}' {
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 || i+eq+1 >= len(line) || line[i+eq+1] != '"' {
			return "", nil, "", false
		}
		key := strings.TrimLeft(line[i:i+eq], ", ")
		j := i + eq + 2
		var val strings.Builder
		for j < len(line) && line[j] != '"' {
			if line[j] == '\\' && j+1 < len(line) {
				j++
				switch line[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(line[j])
				}
			} else {
				val.WriteByte(line[j])
			}
			j++
		}
		if j >= len(line) {
			return "", nil, "", false
		}
		labels = append(labels, key, val.String())
		i = j + 1
		if i < len(line) && line[i] == ',' {
			i++
		}
	}
	if i >= len(line) {
		return "", nil, "", false
	}
	return name, labels, line[i+1:], true
}

func (p promSnapshot) get(name string, labels ...string) float64 {
	return p[seriesKey(name, labels...)]
}

// delta is after − before for one series; a series absent before counts
// from zero (it was registered during the window).
func delta(before, after promSnapshot, name string, labels ...string) float64 {
	k := seriesKey(name, labels...)
	return after[k] - before[k]
}

// histDelta is what one histogram observed between two scrapes.
type histDelta struct {
	Count, Sum float64
	// Bounds are the upper bucket bounds in ascending order (+Inf last);
	// Counts[i] is the number of observations in (Bounds[i-1], Bounds[i]].
	Bounds []float64
	Counts []float64
}

// histogramDelta subtracts the _count, _sum and cumulative _bucket series
// of one histogram (selected by its non-"le" labels) across two scrapes.
func histogramDelta(before, after promSnapshot, name string, labels ...string) histDelta {
	h := histDelta{
		Count: delta(before, after, name+"_count", labels...),
		Sum:   delta(before, after, name+"_sum", labels...),
	}
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	want := map[string]string{}
	for i := 0; i+1 < len(labels); i += 2 {
		want[labels[i]] = labels[i+1]
	}
	for key, v := range after {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		_, ls, _, ok := splitSeries(key + " 0")
		if !ok {
			continue
		}
		le, match, seen := math.NaN(), true, 0
		for i := 0; i+1 < len(ls); i += 2 {
			if ls[i] == "le" {
				if ls[i+1] == "+Inf" {
					le = math.Inf(1)
				} else if f, err := strconv.ParseFloat(ls[i+1], 64); err == nil {
					le = f
				}
				continue
			}
			if w, ok := want[ls[i]]; !ok || w != ls[i+1] {
				match = false
			} else {
				seen++
			}
		}
		if !match || seen != len(want) || math.IsNaN(le) {
			continue
		}
		bs = append(bs, bucket{le, v - before[key]})
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	prev := 0.0
	for _, b := range bs {
		h.Bounds = append(h.Bounds, b.le)
		h.Counts = append(h.Counts, b.cum-prev)
		prev = b.cum
	}
	return h
}

// Mean is the mean observation in the window (0 when nothing was observed).
func (h histDelta) Mean() float64 {
	if h.Count <= 0 {
		return 0
	}
	return h.Sum / h.Count
}
