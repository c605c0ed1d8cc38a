package campaign

import "math"

// wfq is virtual-time weighted fair queueing over campaign flows. A flow
// joining at virtual time V gets its first virtual finish V + 1/weight;
// each admission it wins advances its finish by another 1/weight, and the
// pump always serves the eligible flow with the smallest finish. Over any
// interval in which two flows stay backlogged, their admission counts
// converge to the ratio of their weights — a weight-10 tenant drains ten
// jobs for each job of a weight-1 tenant, and neither can starve the
// other. Callers hold the manager lock.
type wfq struct {
	vnow  float64
	flows map[string]*wfqFlow
}

type wfqFlow struct {
	weight  float64
	vfinish float64
}

func newWFQ() *wfq { return &wfq{flows: make(map[string]*wfqFlow)} }

// pick selects the next flow among the eligible ids and charges it one
// admission. Returns "" when ids is empty. weightOf supplies each flow's
// weight (clamped to ≥ 1); a flow seen for the first time joins at the
// current virtual time, so late arrivals get their fair share going
// forward without back-credit for the past.
func (q *wfq) pick(ids []string, weightOf func(string) float64) string {
	best, bestF := "", math.Inf(1)
	for _, id := range ids {
		f, ok := q.flows[id]
		if !ok {
			w := weightOf(id)
			if w < 1 {
				w = 1
			}
			f = &wfqFlow{weight: w, vfinish: q.vnow + 1/w}
			q.flows[id] = f
		}
		if f.vfinish < bestF {
			best, bestF = id, f.vfinish
		}
	}
	if best == "" {
		return ""
	}
	f := q.flows[best]
	q.vnow = f.vfinish
	f.vfinish += 1 / f.weight
	return best
}

// forget drops a terminal flow's state.
func (q *wfq) forget(id string) { delete(q.flows, id) }
