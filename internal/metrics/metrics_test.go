package metrics

import (
	"strings"
	"testing"
	"time"

	"chaseci/internal/sim"
)

func newTestRegistry() (*sim.Clock, *Registry) {
	c := sim.NewClock()
	return c, NewRegistry(c)
}

func TestGaugeRecordsAtVirtualTime(t *testing.T) {
	c, r := newTestRegistry()
	g := r.Gauge("cpu_in_use", Labels{"pod": "w1"})
	g.Set(4)
	c.RunUntil(10 * time.Second)
	g.Set(8)
	s := r.Select("cpu_in_use", nil)[0]
	if len(s.Samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(s.Samples))
	}
	if s.Samples[0] != (Sample{0, 4}) || s.Samples[1] != (Sample{10 * time.Second, 8}) {
		t.Fatalf("samples = %v", s.Samples)
	}
}

func TestCounterMonotone(t *testing.T) {
	_, r := newTestRegistry()
	cnt := r.Counter("bytes_total", nil)
	cnt.Add(100)
	cnt.Inc()
	if cnt.Value() != 101 {
		t.Fatalf("counter = %v, want 101", cnt.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter add did not panic")
		}
	}()
	cnt.Add(-1)
}

func TestSameInstantOverwrites(t *testing.T) {
	_, r := newTestRegistry()
	g := r.Gauge("g", nil)
	g.Set(1)
	g.Set(2)
	s := r.Select("g", nil)[0]
	if len(s.Samples) != 1 || s.Samples[0].Value != 2 {
		t.Fatalf("samples = %v, want single sample of 2", s.Samples)
	}
}

func TestSelectByLabels(t *testing.T) {
	_, r := newTestRegistry()
	r.Gauge("mem", Labels{"pod": "a", "ns": "x"}).Set(1)
	r.Gauge("mem", Labels{"pod": "b", "ns": "x"}).Set(2)
	r.Gauge("mem", Labels{"pod": "c", "ns": "y"}).Set(3)
	r.Gauge("cpu", Labels{"pod": "a", "ns": "x"}).Set(4)

	if got := len(r.Select("mem", Labels{"ns": "x"})); got != 2 {
		t.Fatalf("Select(mem, ns=x) returned %d series, want 2", got)
	}
	if got := len(r.Select("mem", nil)); got != 3 {
		t.Fatalf("Select(mem) returned %d series, want 3", got)
	}
	if got := len(r.Select("", Labels{"pod": "a"})); got != 2 {
		t.Fatalf("Select(*, pod=a) returned %d series, want 2", got)
	}
}

func TestLabelsStringDeterministic(t *testing.T) {
	l := Labels{"z": "1", "a": "2"}
	want := `{a="2",z="1"}`
	if l.String() != want {
		t.Fatalf("labels string = %s, want %s", l.String(), want)
	}
}

func TestMaxMeanOf(t *testing.T) {
	in := []Sample{{0, 1}, {1, 5}, {2, 3}}
	if MaxOf(in) != 5 {
		t.Fatalf("MaxOf = %v, want 5", MaxOf(in))
	}
	if MeanOf(in) != 3 {
		t.Fatalf("MeanOf = %v, want 3", MeanOf(in))
	}
	if MaxOf(nil) != 0 || MeanOf(nil) != 0 {
		t.Fatal("empty aggregates should be 0")
	}
}

func TestChartRendersPeak(t *testing.T) {
	samples := []Sample{{0, 0}, {time.Second, 100}, {2 * time.Second, 0}}
	out := Chart(samples, ChartOptions{Width: 30, Height: 5, Title: "test", Unit: "MB/s"})
	if !strings.Contains(out, "test") {
		t.Fatal("chart missing title")
	}
	if !strings.Contains(out, "#") {
		t.Fatal("chart has no plotted area")
	}
	if !strings.Contains(out, "100.00MB/s") {
		t.Fatalf("chart missing max label:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart(nil, ChartOptions{})
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty chart = %q", out)
	}
}

func TestSparklineWidth(t *testing.T) {
	samples := []Sample{{0, 1}, {time.Second, 2}, {2 * time.Second, 3}}
	sp := Sparkline(samples, 20)
	if n := len([]rune(sp)); n != 20 {
		t.Fatalf("sparkline width = %d, want 20", n)
	}
}

// TestLabelsMatches: a selector matches when every one of its pairs is in
// the labels; extra labels on the series do not matter.
func TestLabelsMatches(t *testing.T) {
	l := Labels{"pod": "w1", "ns": "connect"}
	for _, tc := range []struct {
		name string
		sel  Labels
		want bool
	}{
		{"nil selector", nil, true},
		{"empty selector", Labels{}, true},
		{"subset", Labels{"ns": "connect"}, true},
		{"every pair", Labels{"pod": "w1", "ns": "connect"}, true},
		{"wrong value", Labels{"pod": "w2"}, false},
		{"missing key", Labels{"node": "a0"}, false},
		{"one pair wrong", Labels{"pod": "w1", "ns": "other"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := l.matches(tc.sel); got != tc.want {
				t.Fatalf("%v.matches(%v) = %v, want %v", l, tc.sel, got, tc.want)
			}
		})
	}
}

// TestRegistryKeepsOneSeriesPerID: instruments made twice for one
// name+labels write one series, and the stored labels are a copy the
// caller's map cannot change.
func TestRegistryKeepsOneSeriesPerID(t *testing.T) {
	c, r := newTestRegistry()
	labels := Labels{"node": "a0"}
	r.Gauge("up", labels).Set(1)
	c.RunUntil(time.Second)
	r.Gauge("up", Labels{"node": "a0"}).Set(0)
	labels["node"] = "b0"

	got := r.Select("up", nil)
	if len(got) != 1 {
		t.Fatalf("%d series for one name+labels, want 1", len(got))
	}
	s := got[0]
	if s.ID() != `up{node="a0"}` {
		t.Fatalf("series ID = %s after the caller's map changed", s.ID())
	}
	if len(s.Samples) != 2 || s.Samples[0].Value != 1 || s.Samples[1].Value != 0 {
		t.Fatalf("samples = %v, want 1 then 0", s.Samples)
	}
}

// TestChartDefaultsAndAxis: zero options give the 72x12 plot, and the
// axis names the first and last sample times.
func TestChartDefaultsAndAxis(t *testing.T) {
	samples := []Sample{{0, 2}, {90 * time.Second, 4}}
	lines := strings.Split(strings.TrimSuffix(Chart(samples, ChartOptions{}), "\n"), "\n")
	if len(lines) != 12+2 {
		t.Fatalf("%d lines, want 12 rows + axis + times:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if axis := lines[12]; !strings.HasSuffix(axis, "+"+strings.Repeat("-", 72)) {
		t.Fatalf("axis line %q is not 72 columns", axis)
	}
	if times := strings.Fields(lines[13]); len(times) != 2 || times[0] != "0s" || times[1] != "1m30s" {
		t.Fatalf("time labels = %q, want 0s and 1m30s", lines[13])
	}
	if !strings.Contains(lines[0], "4.00") {
		t.Fatalf("top row %q does not carry the peak 4.00", lines[0])
	}
}

// TestFormatValueUnits: the y-axis labels switch prefix at each power of
// 1000.
func TestFormatValueUnits(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0.00B"},
		{999, "999.00B"},
		{1000, "1.00kB"},
		{2.5e6, "2.50MB"},
		{3e9, "3.00GB"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			if got := formatValue(tc.v, "B"); got != tc.want {
				t.Fatalf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
			}
		})
	}
}
