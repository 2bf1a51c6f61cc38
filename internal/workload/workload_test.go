package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mlcc/internal/sim"
)

func TestCDFValidate(t *testing.T) {
	bad := &CDF{name: "bad", sizes: []int64{10, 5}, probs: []float64{0.5, 1}}
	if err := bad.validate(); err == nil {
		t.Fatal("non-monotone sizes accepted")
	}
	bad2 := &CDF{name: "bad2", sizes: []int64{1, 10}, probs: []float64{0, 0.9}}
	if err := bad2.validate(); err == nil {
		t.Fatal("CDF not ending at 1 accepted")
	}
	short := &CDF{name: "s", sizes: []int64{1}, probs: []float64{1}}
	if err := short.validate(); err == nil {
		t.Fatal("single-point CDF accepted")
	}
	nan := &CDF{name: "nan", sizes: []int64{1, 10}, probs: []float64{math.NaN(), 1}}
	if err := nan.validate(); err == nil {
		t.Fatal("NaN probability accepted (NaN passes every ordering comparison)")
	}
	over := &CDF{name: "over", sizes: []int64{1, 10}, probs: []float64{0, 1.5}}
	if err := over.validate(); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	zeroSize := &CDF{name: "z", sizes: []int64{0, 10}, probs: []float64{0, 1}}
	if err := zeroSize.validate(); err == nil {
		t.Fatal("zero-byte smallest size accepted (Sample could return 0)")
	}
	if err := Websearch().validate(); err != nil {
		t.Fatal(err)
	}
	if err := Hadoop().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"websearch", "hadoop"} {
		c, err := ByName(name)
		if err != nil || c.name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestSampleWithinSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range []*CDF{Websearch(), Hadoop()} {
		lo, hi := c.sizes[0], c.sizes[len(c.sizes)-1]
		for i := 0; i < 10000; i++ {
			s := c.sample(rng)
			if s < lo || s > hi {
				t.Fatalf("%s: sample %d outside [%d, %d]", c.name, s, lo, hi)
			}
		}
	}
}

func TestEmpiricalMeanMatchesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []*CDF{Websearch(), Hadoop()} {
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(c.sample(rng))
		}
		emp := sum / n
		want := c.mean()
		if math.Abs(emp-want)/want > 0.05 {
			t.Errorf("%s: empirical mean %.0f vs analytic %.0f", c.name, emp, want)
		}
	}
}

func TestHadoopIsMostlySmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Hadoop()
	small := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if c.sample(rng) <= 10000 {
			small++
		}
	}
	if frac := float64(small) / n; frac < 0.6 {
		t.Errorf("hadoop small-flow fraction = %.2f, want >= 0.6", frac)
	}
}

func TestWebsearchHasHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Websearch()
	var big int
	const n = 20000
	for i := 0; i < n; i++ {
		if c.sample(rng) >= 1_000_000 {
			big++
		}
	}
	frac := float64(big) / n
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("websearch >=1MB fraction = %.2f, want ~0.30", frac)
	}
}

func testSpec(intra, cross float64) Spec {
	return Spec{
		CDF:       Websearch(),
		IntraLoad: intra,
		CrossLoad: cross,
		HostRate:  25 * sim.Gbps,
		CrossRate: 100 * sim.Gbps,
		Hosts:     32,
		Duration:  20 * sim.Millisecond,
		Seed:      3,
	}
}

// mustGenerate fails the test on a generation error; for specs that are
// valid by construction.
func mustGenerate(t *testing.T, spec Spec) []FlowSpec {
	t.Helper()
	flows, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", spec, err)
	}
	return flows
}

func TestGenerateLoad(t *testing.T) {
	spec := testSpec(0.5, 0.2)
	flows := mustGenerate(t, spec)
	if len(flows) == 0 {
		t.Fatal("no flows")
	}
	// Expected bytes: intra 0.5×32 hosts×25G; cross 0.2×100G per direction.
	capIntra := 0.5 * 32 * 25e9 / 8 * spec.Duration.Seconds()
	capCross := 2 * 0.2 * 100e9 / 8 * spec.Duration.Seconds()
	var intra, cross float64
	for _, f := range flows {
		if f.Cross {
			cross += float64(f.Size)
		} else {
			intra += float64(f.Size)
		}
	}
	if math.Abs(intra-capIntra)/capIntra > 0.25 {
		t.Errorf("intra bytes %.3g, want ≈ %.3g", intra, capIntra)
	}
	if math.Abs(cross-capCross)/capCross > 0.35 {
		t.Errorf("cross bytes %.3g, want ≈ %.3g", cross, capCross)
	}
}

func TestGenerateDestinations(t *testing.T) {
	flows := mustGenerate(t, testSpec(0.3, 0.1))
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("self flow")
		}
		sameDC := (f.Src < 16) == (f.Dst < 16)
		if f.Cross == sameDC {
			t.Fatalf("flow %+v: cross flag inconsistent", f)
		}
		if f.Start < 0 || f.Start >= 20*sim.Millisecond {
			t.Fatalf("start %v outside window", f.Start)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, testSpec(0.5, 0.2))
	b := mustGenerate(t, testSpec(0.5, 0.2))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	if _, err := Generate(Spec{}); err == nil {
		t.Fatal("empty spec accepted (used to yield a silent empty list)")
	}
	spec := testSpec(0, 0)
	if flows := mustGenerate(t, spec); len(flows) != 0 {
		t.Fatalf("zero load produced %d flows", len(flows))
	}
}

// TestGenerateRejectsDegenerateSpecs is the silent-empty-output regression:
// negative rates made λ negative, which the inner generator silently dropped,
// and odd host counts broke the first-half-is-DC0 split. All of these must
// surface as errors now.
func TestGenerateRejectsDegenerateSpecs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"negative host rate", func(s *Spec) { s.HostRate = -25 * sim.Gbps }},
		{"zero host rate", func(s *Spec) { s.HostRate = 0 }},
		{"negative intra rate", func(s *Spec) { s.IntraRate = -sim.Gbps }},
		{"negative cross rate", func(s *Spec) { s.CrossRate = -sim.Gbps }},
		{"odd hosts", func(s *Spec) { s.Hosts = 33 }},
		{"one host", func(s *Spec) { s.Hosts = 1 }},
		{"zero duration", func(s *Spec) { s.Duration = 0 }},
		{"negative intra load", func(s *Spec) { s.IntraLoad = -0.1 }},
		{"NaN cross load", func(s *Spec) { s.CrossLoad = math.NaN() }},
		{"infinite intra load", func(s *Spec) { s.IntraLoad = math.Inf(1) }},
		{"nil CDF", func(s *Spec) { s.CDF = nil }},
	}
	for _, tc := range cases {
		spec := testSpec(0.5, 0.2)
		tc.mutate(&spec)
		if _, err := Generate(spec); err == nil {
			t.Errorf("%s: accepted (want an error, not silent empty output)", tc.name)
		}
	}
}

// TestGenerateSorted is the sort-contract regression: the doc used to claim
// "sorted by construction" while the output was per-host interleaved. The
// contract now is the canonical (Start, Src, Dst, Size, Tag) order, which
// composition relies on when merging independently generated lists.
func TestGenerateSorted(t *testing.T) {
	flows := mustGenerate(t, testSpec(0.5, 0.2))
	if len(flows) < 2 {
		t.Fatal("workload too small to exercise ordering")
	}
	for i := 1; i < len(flows); i++ {
		a, b := flows[i-1], flows[i]
		less := a.Start < b.Start ||
			(a.Start == b.Start && (a.Src < b.Src ||
				(a.Src == b.Src && (a.Dst < b.Dst ||
					(a.Dst == b.Dst && (a.Size < b.Size ||
						(a.Size == b.Size && a.Tag <= b.Tag)))))))
		if !less {
			t.Fatalf("flows %d/%d out of canonical order: %+v then %+v", i-1, i, a, b)
		}
	}
	// Sorting must be idempotent: re-sorting the output changes nothing.
	resorted := append([]FlowSpec(nil), flows...)
	SortFlows(resorted)
	for i := range flows {
		if flows[i] != resorted[i] {
			t.Fatalf("flow %d moved under re-sort: %+v vs %+v", i, flows[i], resorted[i])
		}
	}
}

// TestMergeFlows pins the deterministic-merge helper: merging per-tenant
// lists must equal sorting the concatenation, regardless of list order.
func TestMergeFlows(t *testing.T) {
	specA := testSpec(0.3, 0.1)
	specA.Tag = "a"
	specB := testSpec(0.2, 0.2)
	specB.Tag = "b"
	specB.Seed = 9
	a := mustGenerate(t, specA)
	b := mustGenerate(t, specB)
	ab := MergeFlows(a, b)
	ba := MergeFlows(b, a)
	if len(ab) != len(a)+len(b) || len(ab) != len(ba) {
		t.Fatalf("merge lengths: ab=%d ba=%d a=%d b=%d", len(ab), len(ba), len(a), len(b))
	}
	for i := range ab {
		if ab[i] != ba[i] {
			t.Fatalf("merge order depends on input order at %d: %+v vs %+v", i, ab[i], ba[i])
		}
	}
	for _, f := range ab {
		if f.Tag != "a" && f.Tag != "b" {
			t.Fatalf("flow lost its tag: %+v", f)
		}
	}
}

// stableSorted is the reference order SortFlows must reproduce: a stable
// sort of a copy of flows over the same total key, compared field by field.
func stableSorted(flows []FlowSpec) []FlowSpec {
	boolCmp := func(a, b bool) int {
		switch {
		case a == b:
			return 0
		case a:
			return 1
		}
		return -1
	}
	out := slices.Clone(flows)
	slices.SortStableFunc(out, func(a, b FlowSpec) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst),
			cmp.Compare(a.Size, b.Size), cmp.Compare(a.Tag, b.Tag), boolCmp(a.Cross, b.Cross))
	})
	return out
}

// TestSortFlowsMatchesStableOrder holds SortFlows to a stable sort over the
// same total key on inputs built to tie: keys drawn from tiny domains, exact
// duplicates, rows that differ only in Cross, and merges of overlapping
// lists. Flows equal in the whole key are identical values, so no unstable
// sort can tell them apart from the stable order. The edge cases are the
// bucket pass's: every flow at one Start (a single bucket), Start at both
// ends of sim.Time's range in one list (the bucket index must neither
// overflow nor lose monotonicity), and lists too short to bucket.
func TestSortFlowsMatchesStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func(n int) []FlowSpec {
		out := make([]FlowSpec, n)
		for i := range out {
			out[i] = FlowSpec{Start: sim.Time(rng.Intn(3)), Src: rng.Intn(3), Dst: rng.Intn(3),
				Size: int64(rng.Intn(2)), Tag: []string{"", "a", "b"}[rng.Intn(3)], Cross: rng.Intn(2) == 1}
			if i > 0 && rng.Intn(4) == 0 {
				out[i] = out[rng.Intn(i)] // an exact duplicate
			}
			if i > 0 && rng.Intn(4) == 0 {
				out[i] = out[i-1]
				out[i].Cross = !out[i].Cross // differs only in Cross
			}
		}
		return out
	}
	check := func(name string, got, want []FlowSpec) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: SortFlows order differs from the stable sort:\n got %+v\nwant %+v", name, got, want)
		}
	}
	for _, n := range []int{0, 1, 2, 5, 12, 13, 40, 300} {
		in := draw(n)
		got := slices.Clone(in)
		SortFlows(got)
		check(fmt.Sprintf("%d random rows", n), got, stableSorted(in))

		// Overlapping lists: in merged with a shuffled copy of its tail.
		tail := slices.Clone(in[n/2:])
		rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
		check(fmt.Sprintf("merge of %d rows", n), MergeFlows(in, tail), stableSorted(append(slices.Clone(in), tail...)))
		check(fmt.Sprintf("reverse merge of %d rows", n), MergeFlows(tail, in), stableSorted(append(slices.Clone(in), tail...)))
	}

	sorted := func(name string, in []FlowSpec) {
		t.Helper()
		got := slices.Clone(in)
		SortFlows(got)
		check(name, got, stableSorted(in))
	}
	wave := draw(50)
	for i := range wave {
		wave[i].Start = 5 * sim.Microsecond
	}
	sorted("one-Start incast wave", wave)

	extremes := draw(64)
	for i := range extremes {
		switch i % 4 {
		case 0:
			extremes[i].Start = 0
		case 1:
			extremes[i].Start = math.MaxInt64 - sim.Time(rng.Intn(3))
		case 2:
			extremes[i].Start = math.MaxInt64 / 2
		}
	}
	sorted("Start at 0 and near sim.Time's maximum", extremes)
	sorted("Start at both int64 extremes", []FlowSpec{{Start: math.MaxInt64}, {Start: math.MinInt64}, {Start: math.MaxInt64 - 1}, {Start: 0}})

	for n := 0; n <= 2; n++ {
		for _, in := range [][]FlowSpec{draw(n), slices.Clone(extremes[:n])} {
			sorted(fmt.Sprintf("%d rows", n), in)
		}
	}
	sorted("2 rows, reversed", []FlowSpec{{Start: 9, Src: 1}, {Start: 3, Src: 2}})
}

// TestGenerateSingleHostPerDC is the livelock regression: with Hosts=2 each
// DC has exactly one host, so the intra-DC destination draw ("uniform among
// OTHER same-DC hosts") has an empty support and the retry loop `for dst == h`
// used to spin forever. Generate must now skip intra generation for
// single-host DCs — and still produce the cross traffic. The goroutine +
// deadline guard keeps a regression from hanging the whole test binary.
func TestGenerateSingleHostPerDC(t *testing.T) {
	done := make(chan []FlowSpec, 1)
	go func() {
		spec := testSpec(0.5, 0.2)
		spec.Hosts = 2
		flows, err := Generate(spec)
		if err != nil {
			t.Error(err)
		}
		done <- flows
	}()
	select {
	case flows := <-done:
		for _, f := range flows {
			if !f.Cross {
				t.Fatalf("intra flow %+v generated with one host per DC", f)
			}
			if f.Src == f.Dst {
				t.Fatalf("self flow %+v", f)
			}
		}
		if len(flows) == 0 {
			t.Fatal("cross traffic missing: intra skip must not suppress cross generation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Generate livelocked with perDC == 1 and IntraLoad > 0")
	}
}

// TestOfferedLoadsPinned pins the split diagnostics against the spec's own
// load knobs: the realized intra fraction is measured against Hosts ×
// IntraRate and the cross fraction against both directions of the long haul
// (2 × CrossRate) — NOT against Hosts × HostRate, which would understate
// cross load by HostRate/CrossRate (the old aggregate diagnostic's bug).
func TestOfferedLoadsPinned(t *testing.T) {
	spec := testSpec(0.5, 0.2)
	flows := mustGenerate(t, spec)
	intra, cross, err := offeredLoads(flows, spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(intra-0.5)/0.5 > 0.25 {
		t.Errorf("realized intra load %.3f, want ≈ 0.5", intra)
	}
	if math.Abs(cross-0.2)/0.2 > 0.35 {
		t.Errorf("realized cross load %.3f, want ≈ 0.2", cross)
	}

	// Construct a trace where the wrong denominator is unmistakable: one
	// cross flow filling exactly 10% of both long-haul directions for the
	// window. Hosts × HostRate is 4× the two-way long-haul capacity here, so
	// the old normalization would report 0.025.
	sized := []FlowSpec{{Src: 0, Dst: 16, Size: int64(2 * 100e9 / 8 * 0.020 * 0.10), Cross: true}}
	intraOnly, crossOnly, err := offeredLoads(sized, spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(crossOnly-0.10) > 1e-9 {
		t.Errorf("pinned cross load = %.6f, want 0.10 exactly", crossOnly)
	}
	if intraOnly != 0 {
		t.Errorf("cross-only trace reported intra load %v", intraOnly)
	}
}

// TestOfferedLoadsRejectsVacuousSpec pins the ok/error contract: a spec whose
// denominators are meaningless must error, not report (0, 0) — an acceptance
// test comparing realized to requested load would otherwise pass vacuously.
func TestOfferedLoadsRejectsVacuousSpec(t *testing.T) {
	flows := []FlowSpec{{Src: 0, Dst: 16, Size: 1 << 20, Cross: true}}
	zeroDur := testSpec(0.5, 0.2)
	zeroDur.Duration = 0
	if _, _, err := offeredLoads(flows, zeroDur); err == nil {
		t.Error("zero-duration spec accepted")
	}
	zeroCap := testSpec(0.5, 0.2)
	zeroCap.HostRate = 0
	if _, _, err := offeredLoads(flows, zeroCap); err == nil {
		t.Error("zero-capacity spec accepted")
	}
	negCap := testSpec(0.5, 0.2)
	negCap.CrossRate = -sim.Gbps
	if _, _, err := offeredLoads(flows, negCap); err == nil {
		t.Error("negative-capacity spec accepted")
	}
	// No flows over a valid spec is NOT an error: zero realized load is a
	// real measurement.
	intra, cross, err := offeredLoads(nil, testSpec(0.5, 0.2))
	if err != nil || intra != 0 || cross != 0 {
		t.Errorf("empty trace over a valid spec: got (%v, %v, %v), want (0, 0, nil)", intra, cross, err)
	}
}

// TestOfferedLoadsMatchSpecProperty checks across seeds that the realized
// offered load tracks the requested IntraLoad/CrossLoad. Per-seed noise is
// real — websearch's heavy tail gives aggregate bytes a ~25-35% relative
// std at this window — so each seed gets a loose bound and the seed-averaged
// loads get a tight one (estimator consistency, not luck).
func TestOfferedLoadsMatchSpecProperty(t *testing.T) {
	const seeds = 8
	var sumIntra, sumCross float64
	for seed := int64(1); seed <= seeds; seed++ {
		spec := testSpec(0.5, 0.2)
		spec.Seed = seed
		intra, cross, err := offeredLoads(mustGenerate(t, spec), spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(intra-0.5)/0.5 > 0.6 {
			t.Errorf("seed %d: realized intra load %.3f implausibly far from 0.5", seed, intra)
		}
		if math.Abs(cross-0.2)/0.2 > 0.9 {
			t.Errorf("seed %d: realized cross load %.3f implausibly far from 0.2", seed, cross)
		}
		sumIntra += intra
		sumCross += cross
	}
	avgIntra, avgCross := sumIntra/seeds, sumCross/seeds
	if math.Abs(avgIntra-0.5)/0.5 > 0.15 {
		t.Errorf("seed-averaged intra load %.3f, want ≈ 0.5 within 15%%", avgIntra)
	}
	if math.Abs(avgCross-0.2)/0.2 > 0.25 {
		t.Errorf("seed-averaged cross load %.3f, want ≈ 0.2 within 25%%", avgCross)
	}
}

// TestMeanIncludesPointMass pins the Mean fix: probability mass sitting at
// the first size (probs[0] > 0) is part of the expectation. The built-in
// tables have probs[0] = 0, so this fix cannot move their generated loads.
func TestMeanIncludesPointMass(t *testing.T) {
	c := &CDF{name: "pm", sizes: []int64{100, 200}, probs: []float64{0.5, 1}}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	// E = 0.5×100 (point mass) + 0.5×(100+200)/2 (linear segment) = 125.
	if got := c.mean(); math.Abs(got-125) > 1e-9 {
		t.Errorf("Mean = %v, want 125", got)
	}
	for _, b := range []*CDF{Websearch(), Hadoop()} {
		if b.probs[0] != 0 {
			t.Errorf("%s: Probs[0] = %v — point-mass fix would change its mean", b.name, b.probs[0])
		}
	}
}

// Property: sampling is monotone in the uniform draw — more probability mass
// maps to larger sizes.
func TestSampleMonotoneProperty(t *testing.T) {
	c := Websearch()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Invert manually at two ordered points.
		u1, u2 := rng.Float64(), rng.Float64()
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		s1 := sampleAt(c, u1)
		s2 := sampleAt(c, u2)
		return s1 <= s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sampleAt exposes the inverse transform at a fixed u via a stub RNG.
func sampleAt(c *CDF, u float64) int64 {
	rng := rand.New(&fixedSource{u: u})
	return c.sample(rng)
}

// fixedSource makes rng.Float64 return approximately u once.
type fixedSource struct{ u float64 }

func (f *fixedSource) Int63() int64 {
	v := int64(f.u * (1 << 63))
	if v >= 1<<63-1 {
		v = 1<<63 - 1
	}
	return v
}
func (f *fixedSource) Seed(int64) {}

// offeredLoads reports the realized intra- and cross-DC offered loads of
// flows, each as a fraction of the capacity its Spec load knob is measured
// against: intra bytes against Hosts × IntraRate × Duration, cross bytes
// against the long-haul capacity in both directions, 2 × CrossRate ×
// Duration — the denominators Generate sizes its Poisson processes for.
// Normalizing cross traffic by Hosts × HostRate (as a single aggregate
// diagnostic once did) understates the realized cross load by the ratio of
// host to long-haul capacity.
//
// A spec whose capacities or duration cannot normalize anything returns an
// error instead of (0, 0): "no flows arrived" and "the denominator was
// meaningless" are different findings, and acceptance tests asserting on
// realized load must not pass vacuously on the latter.
func offeredLoads(flows []FlowSpec, spec Spec) (intra, cross float64, err error) {
	if err := spec.validate(); err != nil {
		return 0, 0, err
	}
	var intraBytes, crossBytes int64
	for _, f := range flows {
		if f.Cross {
			crossBytes += f.Size
		} else {
			intraBytes += f.Size
		}
	}
	crossRate, intraRate := spec.rates()
	dur := spec.Duration.Seconds()
	intraCap := float64(spec.Hosts) * float64(intraRate) / 8 * dur
	crossCap := 2 * float64(crossRate) / 8 * dur
	if !(intraCap > 0) || !(crossCap > 0) {
		return 0, 0, fmt.Errorf("workload: degenerate capacities (intra %g B, cross %g B over %v)", intraCap, crossCap, spec.Duration)
	}
	return float64(intraBytes) / intraCap, float64(crossBytes) / crossCap, nil
}

// hadoopSpec is the shape the 256-host figure cells generate: Hadoop sizes
// at half load over a 250 µs window, a few hundred flows.
func hadoopSpec() Spec {
	return Spec{CDF: Hadoop(), IntraLoad: 0.5, HostRate: 100 * sim.Gbps, IntraRate: 25 * sim.Gbps,
		Hosts: 256, Duration: 250 * sim.Microsecond, Seed: 1}
}

// BenchmarkSortFlows sorts a fresh copy of one shuffled Hadoop arrival list
// per op; the copy is part of the op.
func BenchmarkSortFlows(b *testing.B) {
	flows, err := Generate(hadoopSpec())
	if err != nil {
		b.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	work := make([]FlowSpec, len(flows))
	b.ReportAllocs()
	b.ReportMetric(float64(len(flows)), "flows")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, flows)
		SortFlows(work)
	}
}

// BenchmarkGenerate draws and sorts one Hadoop arrival list per op.
func BenchmarkGenerate(b *testing.B) {
	spec := hadoopSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flows, err := Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		benchFlows = flows
	}
}

// benchFlows keeps BenchmarkGenerate's result live.
var benchFlows []FlowSpec
