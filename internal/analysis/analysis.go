// Package analysis provides the solution-fidelity diagnostics behind the
// paper's figures: line cuts through the solution (Figs 1, 3, 4), pairwise
// difference series between precision levels (Figs 1, 4), and the
// mirror-asymmetry diagnostic (Figs 2, 5), plus norms, order-of-magnitude
// separation checks, and CSV/ASCII rendering for the harness output.
package analysis

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is a sampled 1-D signal y(x).
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
}

// NewSeries validates and wraps the data.
func NewSeries(label string, x, y []float64) (Series, error) {
	if len(x) != len(y) {
		return Series{}, fmt.Errorf("analysis: series %q: %d x vs %d y", label, len(x), len(y))
	}
	if len(x) == 0 {
		return Series{}, fmt.Errorf("analysis: series %q is empty", label)
	}
	for i := 1; i < len(x); i++ {
		if x[i] <= x[i-1] {
			return Series{}, fmt.Errorf("analysis: series %q: x not strictly increasing at %d", label, i)
		}
	}
	return Series{Label: label, X: x, Y: y}, nil
}

// Len returns the number of samples.
func (s Series) Len() int { return len(s.X) }

// MaxAbs returns max|y|.
func (s Series) MaxAbs() float64 {
	m := 0.0
	for _, y := range s.Y {
		if a := math.Abs(y); a > m {
			m = a
		}
	}
	return m
}

// L2 returns the root-mean-square of y.
func (s Series) L2() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var sum float64
	for _, y := range s.Y {
		sum += y * y
	}
	return math.Sqrt(sum / float64(len(s.Y)))
}

// At linearly interpolates y at position x (clamped to the domain).
func (s Series) At(x float64) float64 {
	n := len(s.X)
	if x <= s.X[0] {
		return s.Y[0]
	}
	if x >= s.X[n-1] {
		return s.Y[n-1]
	}
	i := sort.SearchFloat64s(s.X, x)
	// s.X[i-1] < x ≤ s.X[i]
	t := (x - s.X[i-1]) / (s.X[i] - s.X[i-1])
	return s.Y[i-1] + t*(s.Y[i]-s.Y[i-1])
}

// Diff returns a − b resampled onto a's grid (the paper's Fig 1/4 bottom
// panels, e.g. "Full − Mixed").
func Diff(a, b Series) Series {
	y := make([]float64, a.Len())
	for i := range y {
		y[i] = a.Y[i] - b.At(a.X[i])
	}
	return Series{Label: a.Label + " - " + b.Label, X: append([]float64(nil), a.X...), Y: y}
}

// Asymmetry mirrors the series about its domain midpoint and returns
// y(center + d) − y(center − d) for d > 0 — the paper's Figs 2 and 5. The
// result's X holds the distances d.
func Asymmetry(s Series) Series {
	n := s.Len()
	center := (s.X[0] + s.X[n-1]) / 2
	half := n / 2
	x := make([]float64, 0, half)
	y := make([]float64, 0, half)
	for i := n - half; i < n; i++ {
		d := s.X[i] - center
		if d <= 0 {
			continue
		}
		x = append(x, d)
		y = append(y, s.Y[i]-s.At(center-d))
	}
	return Series{Label: s.Label + " asymmetry", X: x, Y: y}
}

// OrdersBelow returns log10(scale(reference) / scale(diff)) — how many
// orders of magnitude the difference sits below the solution. The paper's
// fidelity criterion is ≥5–6 orders for CLAMR and ≈2 for SELF.
func OrdersBelow(diff, reference Series) float64 {
	d, r := diff.MaxAbs(), reference.MaxAbs()
	if d == 0 {
		return math.Inf(1)
	}
	if r == 0 {
		return 0
	}
	return math.Log10(r / d)
}

// Bias returns the mean of y — the paper notes the single-precision SELF
// asymmetry is "mostly positive", i.e. biased.
func (s Series) Bias() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var sum float64
	for _, y := range s.Y {
		sum += y
	}
	return sum / float64(len(s.Y))
}

// PositiveFraction returns the fraction of strictly positive samples.
func (s Series) PositiveFraction() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	pos := 0
	for _, y := range s.Y {
		if y > 0 {
			pos++
		}
	}
	return float64(pos) / float64(len(s.Y))
}

// WriteCSV emits aligned series as CSV: x, then one column per series
// (resampled onto the first series' grid).
func WriteCSV(w io.Writer, series ...Series) error {
	if len(series) == 0 {
		return fmt.Errorf("analysis: no series")
	}
	header := make([]string, 0, len(series)+1)
	header = append(header, "x")
	for _, s := range series {
		header = append(header, s.Label)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	base := series[0]
	for i, x := range base.X {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%.10g", x))
		row = append(row, fmt.Sprintf("%.10g", base.Y[i]))
		for _, s := range series[1:] {
			row = append(row, fmt.Sprintf("%.10g", s.At(x)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIPlot renders the series as a rows×cols character plot for terminal
// figures — one glyph per series, with y range annotations.
func ASCIIPlot(rows, cols int, series ...Series) string {
	if rows < 3 {
		rows = 3
	}
	if cols < 16 {
		cols = 16
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@'}
	yMin, yMax := math.Inf(1), math.Inf(-1)
	xMin, xMax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			if s.Y[i] < yMin {
				yMin = s.Y[i]
			}
			if s.Y[i] > yMax {
				yMax = s.Y[i]
			}
		}
		if s.X[0] < xMin {
			xMin = s.X[0]
		}
		if s.X[len(s.X)-1] > xMax {
			xMax = s.X[len(s.X)-1]
		}
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for c := 0; c < cols; c++ {
			x := xMin + (xMax-xMin)*float64(c)/float64(cols-1)
			y := s.At(x)
			r := int(math.Round((yMax - y) / (yMax - yMin) * float64(rows-1)))
			if r < 0 {
				r = 0
			}
			if r >= rows {
				r = rows - 1
			}
			grid[r][c] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%11.3e ┐\n", yMax)
	for _, row := range grid {
		b.WriteString("            │")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%11.3e ┘\n", yMin)
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", glyphs[si%len(glyphs)], s.Label))
	}
	b.WriteString("            " + strings.Join(legend, "   ") + "\n")
	return b.String()
}

// shadeRamp maps normalised intensity to glyphs, light to dark.
const shadeRamp = " .:-=+*#%@"

// Heatmap renders a row-major nx×ny field as a rows×cols ASCII density
// plot (row 0 of the field at the bottom, matching plot convention), with
// the value range annotated. NaN cells render as '?'.
func Heatmap(field []float64, nx, ny, rows, cols int) (string, error) {
	if len(field) != nx*ny || nx <= 0 || ny <= 0 {
		return "", fmt.Errorf("analysis: heatmap %dx%d does not match %d values", nx, ny, len(field))
	}
	if rows < 2 {
		rows = 2
	}
	if cols < 4 {
		cols = 4
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range field {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "max %.4g\n", hi)
	for r := 0; r < rows; r++ {
		// Top output row shows the top of the field.
		j := (rows - 1 - r) * ny / rows
		b.WriteString("  ")
		for c := 0; c < cols; c++ {
			i := c * nx / cols
			v := field[j*nx+i]
			if math.IsNaN(v) {
				b.WriteByte('?')
				continue
			}
			t := (v - lo) / (hi - lo)
			idx := int(t * float64(len(shadeRamp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shadeRamp) {
				idx = len(shadeRamp) - 1
			}
			b.WriteByte(shadeRamp[idx])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "min %.4g\n", lo)
	return b.String(), nil
}
