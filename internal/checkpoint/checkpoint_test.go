package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fp16"
	"repro/internal/zfp"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "clamr", 42, 1.5)
	h64 := []float64{1, 2.5, -3, math.Pi}
	h32 := []float32{0.5, -0.25}
	h16 := fp16.FromSlice64([]float64{1, 2, 65504})
	ids := []int32{-1, 0, 7}
	w.AddF64("h64", h64)
	w.AddF32("h32", h32)
	w.AddF16("h16", h16)
	w.AddI32("ids", ids)
	n, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("Flush reported %d bytes, wrote %d", n, buf.Len())
	}

	ck, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Header.App != "clamr" || ck.Header.Step != 42 || ck.Header.Time != 1.5 {
		t.Errorf("header %+v", ck.Header)
	}
	got64, err := ck.Float64Array("h64")
	if err != nil {
		t.Fatal(err)
	}
	for i := range h64 {
		if got64[i] != h64[i] {
			t.Errorf("h64[%d] = %g", i, got64[i])
		}
	}
	got32, err := ck.Float64Array("h32")
	if err != nil {
		t.Fatal(err)
	}
	if got32[0] != 0.5 || got32[1] != -0.25 {
		t.Errorf("h32 = %v", got32)
	}
	got16, err := ck.Float64Array("h16")
	if err != nil {
		t.Fatal(err)
	}
	if got16[2] != 65504 {
		t.Errorf("h16 = %v", got16)
	}
	gotIDs, err := ck.Int32Array("ids")
	if err != nil {
		t.Fatal(err)
	}
	if gotIDs[0] != -1 || gotIDs[2] != 7 {
		t.Errorf("ids = %v", gotIDs)
	}
}

func TestSizeScalesWithPrecision(t *testing.T) {
	// The same logical state written at f32 must be roughly half the f64
	// payload (the paper's 2/3 total comes from fixed-width metadata).
	n := 10000
	xs64 := make([]float64, n)
	xs32 := make([]float32, n)
	meta := make([]int32, n)

	var full, min bytes.Buffer
	wf := NewWriter(&full, "t", 0, 0)
	wf.AddF64("a", xs64)
	wf.AddF64("b", xs64)
	wf.AddF64("c", xs64)
	wf.AddI32("meta", meta)
	nFull, err := wf.Flush()
	if err != nil {
		t.Fatal(err)
	}
	wm := NewWriter(&min, "t", 0, 0)
	wm.AddF32("a", xs32)
	wm.AddF32("b", xs32)
	wm.AddF32("c", xs32)
	wm.AddI32("meta", meta)
	nMin, err := wm.Flush()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(nMin) / float64(nFull)
	// 3×4+4 over 3×8+4 = 16/28 ≈ 0.571 plus a few header bytes.
	if ratio < 0.5 || ratio > 0.65 {
		t.Errorf("min/full checkpoint ratio = %.3f", ratio)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("Read accepted truncated magic")
	}
	bad := append([]byte("XXXXXXXX"), 0, 0, 0, 0)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("Read accepted bad magic")
	}
	// Truncated payload.
	var buf bytes.Buffer
	w := NewWriter(&buf, "t", 0, 0)
	w.AddF64("a", make([]float64, 100))
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("Read accepted truncated payload")
	}
	// Missing / mistyped arrays.
	buf.Reset()
	w = NewWriter(&buf, "t", 0, 0)
	w.AddI32("ints", []int32{1})
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ck, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Float64Array("missing"); err == nil {
		t.Error("Float64Array found a missing array")
	}
	if _, err := ck.Float64Array("ints"); err == nil {
		t.Error("Float64Array widened an int array")
	}
	if _, err := ck.Int32Array("missing"); err == nil {
		t.Error("Int32Array found a missing array")
	}
}

func TestElemKindSizes(t *testing.T) {
	if F16.Size() != 2 || F32.Size() != 4 || F64.Size() != 8 || I32.Size() != 4 {
		t.Error("element sizes wrong")
	}
	if ElemKind("bogus").Size() != 0 {
		t.Error("unknown kind has nonzero size")
	}
}

func TestCompressedFieldRoundTrip(t *testing.T) {
	const nx, ny = 24, 20
	field := make([]float64, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			field[j*nx+i] = 5 + math.Sin(float64(i)/3)*math.Cos(float64(j)/4)
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, "dump", 3, 0.25)
	if err := w.AddF64Compressed("height", field, nx, ny, 16); err != nil {
		t.Fatal(err)
	}
	w.AddF64("exact", field) // mixing compressed and exact arrays
	n, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// The file holds one exact array (8 B/value) plus one compressed
	// array: the total must sit well below two raw arrays.
	if n > int64(nx*ny*8)+int64(nx*ny)*3 {
		t.Errorf("compressed checkpoint %d bytes — compression ineffective", n)
	}
	ck, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ck.Float64Array("height")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nx*ny {
		t.Fatalf("decompressed length %d", len(got))
	}
	worst := 0.0
	for i := range field {
		if d := math.Abs(got[i] - field[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-4 {
		t.Errorf("compressed field error %g", worst)
	}
	exact, err := ck.Float64Array("exact")
	if err != nil {
		t.Fatal(err)
	}
	if exact[7] != field[7] {
		t.Error("exact array corrupted by compressed sibling")
	}
	// Bad rate propagates as an error.
	w2 := NewWriter(&bytes.Buffer{}, "dump", 0, 0)
	if err := w2.AddF64Compressed("x", field, nx, ny, 1); err == nil {
		t.Error("invalid rate accepted")
	}
}

// stagedEncoding is the checkpoint as Flush wrote it while every array was
// staged whole: magic, header length, JSON header, then the array bodies,
// each encoded on its own.
func stagedEncoding(t *testing.T, h Header, bodies [][]byte) []byte {
	t.Helper()
	hdr, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = append(out, hdr...)
	for _, b := range bodies {
		out = append(out, b...)
	}
	return out
}

// writeSizes records the size of every Write it receives.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestStreamedFlushMatchesStagedEncoding: arrays of every kind, long
// enough to cross several buffer refills at offsets that split elements,
// encode byte for byte as the staged encoding did, through writes no larger
// than the flush buffer.
func TestStreamedFlushMatchesStagedEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f64 := make([]float64, 9001)
	f32 := make([]float32, 17003)
	i32 := make([]int32, 8191)
	f16 := make([]fp16.Float16, 30011)
	for i := range f64 {
		f64[i] = rng.NormFloat64() * 1e3
	}
	for i := range f32 {
		f32[i] = float32(rng.NormFloat64())
	}
	for i := range i32 {
		i32[i] = int32(rng.Uint32())
	}
	for i := range f16 {
		f16[i] = fp16.FromFloat64(rng.NormFloat64())
	}
	const nx, ny = 40, 36
	field := make([]float64, nx*ny)
	for i := range field {
		field[i] = 2 + math.Sin(float64(i)/7)
	}
	zbody, err := zfp.Compress2D(field, nx, ny, 12)
	if err != nil {
		t.Fatal(err)
	}

	var got writeSizes
	w := NewWriter(&got, "clamr", 7, 0.125)
	w.AddF64("f64", f64)
	w.AddI32("i32", i32)
	if err := w.AddF64Compressed("zfp", field, nx, ny, 12); err != nil {
		t.Fatal(err)
	}
	w.AddF32("f32", f32)
	w.AddF16("f16", f16)
	n, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}

	var bodies [][]byte
	b := make([]byte, 8*len(f64))
	for i, x := range f64 {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	bodies = append(bodies, b)
	b = make([]byte, 4*len(i32))
	for i, x := range i32 {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	bodies = append(bodies, b, zbody)
	b = make([]byte, 4*len(f32))
	for i, x := range f32 {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	bodies = append(bodies, b)
	b = make([]byte, 2*len(f16))
	for i, x := range f16 {
		binary.LittleEndian.PutUint16(b[2*i:], x.Bits())
	}
	bodies = append(bodies, b)
	want := stagedEncoding(t, Header{App: "clamr", Step: 7, Time: 0.125, Arrays: []ArrayInfo{
		{Name: "f64", Kind: F64, Len: len(f64)},
		{Name: "i32", Kind: I32, Len: len(i32)},
		{Name: "zfp", Kind: ZFP2D, Len: nx * ny, Bytes: len(zbody)},
		{Name: "f32", Kind: F32, Len: len(f32)},
		{Name: "f16", Kind: F16, Len: len(f16)},
	}}, bodies)

	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed checkpoint (%d bytes) differs from the staged encoding (%d bytes)", got.Len(), len(want))
	}
	if n != int64(len(want)) {
		t.Errorf("Flush reported %d bytes, wrote %d", n, len(want))
	}
	for i, sz := range got.sizes {
		if sz > flushBufBytes {
			t.Fatalf("write %d is %d bytes, over the %d-byte buffer", i, sz, flushBufBytes)
		}
	}
}

// TestFlushAllocationDoesNotGrowWithArrays: writing arrays 64× longer
// allocates no more — staging them would add their whole encoding.
func TestFlushAllocationDoesNotGrowWithArrays(t *testing.T) {
	bytesPerCheckpoint := func(n int) float64 {
		f64, f32 := make([]float64, n), make([]float32, n)
		i32, f16 := make([]int32, n), make([]fp16.Float16, n)
		write := func() {
			w := NewWriter(io.Discard, "clamr", 1, 0)
			w.AddF64("a", f64)
			w.AddF32("b", f32)
			w.AddI32("c", i32)
			w.AddF16("d", f16)
			if _, err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		write()
		const runs = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			write()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const short, long = 1 << 10, 1 << 16
	small, large := bytesPerCheckpoint(short), bytesPerCheckpoint(long)
	// Staging would add 18 bytes per element: 1.2 MB at the long length.
	if large-small > 16<<10 {
		t.Errorf("a checkpoint of %d-element arrays allocates %.0f B, of %d-element arrays %.0f B: Flush grows with the data",
			short, small, long, large)
	}
}
