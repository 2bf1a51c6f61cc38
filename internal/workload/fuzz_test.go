package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlcc/internal/sim"
)

// encodeCDF packs a CDF table into the 16-bytes-per-point wire form FuzzCDF
// decodes, so the built-in distributions can seed the corpus.
func encodeCDF(c *CDF) []byte {
	buf := make([]byte, 0, 16*len(c.sizes))
	for i := range c.sizes {
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(c.sizes[i]))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(c.probs[i]))
		buf = append(buf, rec[:]...)
	}
	return buf
}

// FuzzCDF decodes arbitrary bytes into a CDF table and checks the contract
// validate promises: every table it accepts yields Sample values inside
// [sizes[0], sizes[n-1]] and a finite positive mean. The raw-bits decoding
// deliberately reaches NaN, ±Inf, negative and near-MaxInt64 values — the
// inputs that flushed out the NaN-probability hole and the int64 overflow in
// Mean's segment midpoints.
func FuzzCDF(f *testing.F) {
	f.Add(encodeCDF(Websearch()), int64(1))
	f.Add(encodeCDF(Hadoop()), int64(7))
	f.Add(encodeCDF(&CDF{sizes: []int64{1, math.MaxInt64}, probs: []float64{0, 1}}), int64(3))
	f.Add([]byte("not a table"), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		const rec = 16
		n := len(data) / rec
		if n > 64 {
			n = 64
		}
		c := &CDF{name: "fuzz"}
		for i := 0; i < n; i++ {
			c.sizes = append(c.sizes, int64(binary.LittleEndian.Uint64(data[i*rec:])))
			c.probs = append(c.probs, math.Float64frombits(binary.LittleEndian.Uint64(data[i*rec+8:])))
		}
		if err := c.validate(); err != nil {
			return
		}
		lo, hi := c.sizes[0], c.sizes[len(c.sizes)-1]
		m := c.mean()
		if !(m > 0) || math.IsInf(m, 0) {
			t.Fatalf("validated CDF has mean %v (sizes %v probs %v)", m, c.sizes, c.probs)
		}
		if m > float64(hi)*(1+1e-9) {
			t.Fatalf("mean %v above largest size %d", m, hi)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			if s := c.sample(rng); s < lo || s > hi {
				t.Fatalf("Sample = %d outside support [%d, %d]", s, lo, hi)
			}
		}
	})
}

// FuzzTracefile feeds arbitrary text to ReadFlows. Whatever it accepts must
// honor the documented invariants (host range, no self flows, positive size,
// non-negative start) and survive a Write→Read round trip with every field
// preserved — Start within the float64 precision the CSV format carries.
func FuzzTracefile(f *testing.F) {
	f.Add([]byte("src,dst,size_bytes,start_us\n0,16,125000,43.125\n"), 32)
	f.Add([]byte("# comment\n\n1,0,1,0\n"), 2)
	f.Add([]byte("0,1,100,9e18\n"), 4)
	f.Add([]byte("0,1,100,NaN\n"), 4)
	f.Fuzz(func(t *testing.T, data []byte, hosts int) {
		if hosts < 0 {
			hosts = -hosts
		}
		hosts = hosts%1024 + 2
		flows, err := ReadFlows(bytes.NewReader(data), hosts)
		if err != nil {
			return
		}
		perDC := hosts / 2
		for i, fl := range flows {
			if fl.Src < 0 || fl.Src >= hosts || fl.Dst < 0 || fl.Dst >= hosts || fl.Src == fl.Dst {
				t.Fatalf("flow %d: bad endpoints %d→%d (hosts=%d)", i, fl.Src, fl.Dst, hosts)
			}
			if fl.Size <= 0 || fl.Start < 0 {
				t.Fatalf("flow %d: size=%d start=%v", i, fl.Size, fl.Start)
			}
			if fl.Cross != ((fl.Src < perDC) != (fl.Dst < perDC)) {
				t.Fatalf("flow %d: Cross flag wrong for %d→%d", i, fl.Src, fl.Dst)
			}
		}
		var buf bytes.Buffer
		if err := WriteFlows(&buf, flows); err != nil {
			t.Fatalf("WriteFlows: %v", err)
		}
		back, err := ReadFlows(&buf, hosts)
		if err != nil {
			t.Fatalf("round trip rejected its own output: %v", err)
		}
		if len(back) != len(flows) {
			t.Fatalf("round trip: %d flows became %d", len(flows), len(back))
		}
		for i := range flows {
			a, b := flows[i], back[i]
			if a.Src != b.Src || a.Dst != b.Dst || a.Size != b.Size || a.Cross != b.Cross {
				t.Fatalf("flow %d changed in round trip: %+v vs %+v", i, a, b)
			}
			// Start passes through a float64 microsecond column: exact below
			// ~2^51 ps, up to a few µs of rounding at the int64 clock's rim.
			d := a.Start - b.Start
			if d < 0 {
				d = -d
			}
			if tol := sim.Nanosecond + a.Start/(1<<40); d > tol {
				t.Fatalf("flow %d: start %v became %v (Δ%v)", i, a.Start, b.Start, d)
			}
		}
	})
}

// FuzzSortFlows holds SortFlows to the stable comparator sort on arbitrary
// lists: each 8-byte record is one flow whose Start is the record's raw bits
// (so the whole int64 range, clustered and spread alike) and whose other
// fields come from a tiny domain so full-key ties are common.
func FuzzSortFlows(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{1, 0, 0, 0, 0, 0, 0, 0}, 40), uint8(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, keys uint8) {
		const rec = 8
		if len(data) > 512*rec {
			data = data[:512*rec]
		}
		in := make([]FlowSpec, len(data)/rec)
		for i := range in {
			k := int(keys) + i
			in[i] = FlowSpec{Start: sim.Time(binary.LittleEndian.Uint64(data[i*rec:])),
				Src: k % 3, Dst: k / 3 % 2, Size: int64(k / 6 % 2), Tag: []string{"", "a"}[k/12%2], Cross: k/24%2 == 1}
		}
		got := slices.Clone(in)
		SortFlows(got)
		if want := stableSorted(in); !slices.Equal(got, want) {
			t.Fatalf("SortFlows order differs from the stable sort:\n got %+v\nwant %+v", got, want)
		}
	})
}
