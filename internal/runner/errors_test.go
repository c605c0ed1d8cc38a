package runner

import "testing"

// TestKindStringParseRoundTrip: every kind survives the wire spelling a
// worker reports it in, and an unknown spelling degrades to transient — a
// failure the coordinator cannot classify is retried, never dropped.
func TestKindStringParseRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindPermanent, KindTransient, KindTimeout, KindNumerical} {
		if got := ParseKind(k.String()); got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	for _, s := range []string{"", "Permanent", "oom"} {
		if got := ParseKind(s); got != KindTransient {
			t.Errorf("ParseKind(%q) = %v, want transient", s, got)
		}
	}
}
