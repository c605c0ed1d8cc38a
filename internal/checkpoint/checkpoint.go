// Package checkpoint implements the binary checkpoint format whose on-disk
// size the paper reports (Table III: minimum- and mixed-precision CLAMR
// checkpoints are ~2/3 the size of full-precision ones, because the large
// state arrays are written at storage precision while mesh metadata stays
// fixed-width).
//
// Layout: an 8-byte magic+version, a JSON header (array directory), then
// raw little-endian array payloads in directory order.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/fp16"
	"repro/internal/zfp"
)

// Magic identifies checkpoint files ("MPCK" + 3-byte version + pad).
var Magic = [8]byte{'M', 'P', 'C', 'K', 0, 0, 1, 0}

// ElemKind identifies the element encoding of one array.
type ElemKind string

const (
	F16 ElemKind = "f16"
	F32 ElemKind = "f32"
	F64 ElemKind = "f64"
	I32 ElemKind = "i32"
	// ZFP2D is a fixed-rate compressed 2-D field (internal/zfp); its
	// payload length comes from ArrayInfo.Bytes rather than Len×Size.
	ZFP2D ElemKind = "zfp2d"
)

// Size returns bytes per element.
func (k ElemKind) Size() int {
	switch k {
	case F16:
		return 2
	case F32, I32:
		return 4
	case F64:
		return 8
	default:
		return 0
	}
}

// ArrayInfo describes one payload array.
type ArrayInfo struct {
	Name string   `json:"name"`
	Kind ElemKind `json:"kind"`
	Len  int      `json:"len"`
	// Bytes is the payload size for kinds whose encoding is not
	// Len×Size() (ZFP2D).
	Bytes int `json:"bytes,omitempty"`
}

// payloadBytes returns the on-disk payload size of the array.
func (a ArrayInfo) payloadBytes() (int, error) {
	if a.Kind == ZFP2D {
		if a.Bytes <= 0 {
			return 0, fmt.Errorf("checkpoint: zfp array %q missing byte length", a.Name)
		}
		return a.Bytes, nil
	}
	if a.Len < 0 || a.Kind.Size() == 0 {
		return 0, fmt.Errorf("checkpoint: bad array directory entry %+v", a)
	}
	return a.Len * a.Kind.Size(), nil
}

// Header describes a checkpoint.
type Header struct {
	App    string      `json:"app"`
	Step   int         `json:"step"`
	Time   float64     `json:"time"`
	Arrays []ArrayInfo `json:"arrays"`
}

// Writer serialises one checkpoint to an io.Writer. Arrays are kept by
// reference and encoded at Flush: a slice passed to an Add method must not
// change until Flush returns.
type Writer struct {
	w      io.Writer
	header Header
	// arrays holds one entry per directory entry: the caller's
	// []float64, []float32, []fp16.Float16 or []int32, or the encoded
	// bytes of a zfp field.
	arrays []any
}

// NewWriter starts a checkpoint with the given identity metadata.
func NewWriter(w io.Writer, app string, step int, simTime float64) *Writer {
	return &Writer{w: w, header: Header{App: app, Step: step, Time: simTime}}
}

// AddF64 appends a float64 array.
func (cw *Writer) AddF64(name string, xs []float64) { cw.add(name, F64, len(xs), xs) }

// AddF32 appends a float32 array.
func (cw *Writer) AddF32(name string, xs []float32) { cw.add(name, F32, len(xs), xs) }

// AddF16 appends a binary16 array.
func (cw *Writer) AddF16(name string, xs []fp16.Float16) { cw.add(name, F16, len(xs), xs) }

// AddI32 appends an int32 array.
func (cw *Writer) AddI32(name string, xs []int32) { cw.add(name, I32, len(xs), xs) }

// AddF64Compressed appends a 2-D float64 field compressed with the
// fixed-rate zfp-style codec at `rate` bits per value — the lossy analysis
// dump the paper's storage discussion contemplates (ref [34]). The field is
// compressed now; data may change once this returns.
func (cw *Writer) AddF64Compressed(name string, data []float64, nx, ny, rate int) error {
	buf, err := zfp.Compress2D(data, nx, ny, rate)
	if err != nil {
		return fmt.Errorf("checkpoint: compress %q: %w", name, err)
	}
	cw.header.Arrays = append(cw.header.Arrays, ArrayInfo{
		Name: name, Kind: ZFP2D, Len: nx * ny, Bytes: len(buf),
	})
	cw.arrays = append(cw.arrays, buf)
	return nil
}

func (cw *Writer) add(name string, kind ElemKind, n int, xs any) {
	cw.header.Arrays = append(cw.header.Arrays, ArrayInfo{Name: name, Kind: kind, Len: n})
	cw.arrays = append(cw.arrays, xs)
}

// flushBufBytes is the size of the buffer Flush encodes through.
const flushBufBytes = 16 << 10

// flushBufs recycles Flush buffers, so a steady stream of checkpoints
// allocates none.
var flushBufs = sync.Pool{New: func() any {
	b := make([]byte, flushBufBytes)
	return &b
}}

// Flush writes the complete checkpoint and returns the total bytes written.
// Everything is encoded through one fixed-size pooled buffer that is
// written out whenever it fills, so what Flush allocates does not grow with
// the arrays.
func (cw *Writer) Flush() (int64, error) {
	hdr, err := json.Marshal(cw.header)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: header: %w", err)
	}
	bp := flushBufs.Get().(*[]byte)
	defer flushBufs.Put(bp)
	e := encoder{w: cw.w, buf: (*bp)[:0]}
	e.buf = append(e.buf, Magic[:]...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(hdr)))
	encode(&e, hdr, 1, copyBytes)
	for _, a := range cw.arrays {
		switch xs := a.(type) {
		case []byte:
			encode(&e, xs, 1, copyBytes)
		case []float64:
			encode(&e, xs, 8, func(dst []byte, xs []float64) {
				for i, x := range xs {
					binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
				}
			})
		case []float32:
			encode(&e, xs, 4, func(dst []byte, xs []float32) {
				for i, x := range xs {
					binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
				}
			})
		case []fp16.Float16:
			encode(&e, xs, 2, func(dst []byte, xs []fp16.Float16) {
				for i, x := range xs {
					binary.LittleEndian.PutUint16(dst[2*i:], x.Bits())
				}
			})
		case []int32:
			encode(&e, xs, 4, func(dst []byte, xs []int32) {
				for i, x := range xs {
					binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
				}
			})
		}
	}
	e.flush()
	if e.err != nil {
		return e.n, fmt.Errorf("checkpoint: write: %w", e.err)
	}
	return e.n, nil
}

// encoder batches Flush's output in a fixed buffer: buf holds the pending
// bytes and its capacity is the whole buffer. After a write error it
// drops everything.
type encoder struct {
	w   io.Writer
	buf []byte
	n   int64 // bytes written to w
	err error
}

// flush writes out the pending bytes.
func (e *encoder) flush() {
	if e.err != nil || len(e.buf) == 0 {
		return
	}
	n, err := e.w.Write(e.buf)
	e.n += int64(n)
	e.err = err
	e.buf = e.buf[:0]
}

// encode appends xs at size bytes per element, put encoding as many whole
// elements as the free part of the buffer holds at a time.
func encode[T any](e *encoder, xs []T, size int, put func(dst []byte, xs []T)) {
	for len(xs) > 0 && e.err == nil {
		k := min(len(xs), (cap(e.buf)-len(e.buf))/size)
		if k == 0 {
			e.flush()
			continue
		}
		n := len(e.buf)
		e.buf = e.buf[:n+k*size]
		put(e.buf[n:], xs[:k])
		xs = xs[k:]
	}
}

func copyBytes(dst, src []byte) { copy(dst, src) }

// Checkpoint is a fully read checkpoint.
type Checkpoint struct {
	Header Header
	arrays map[string]any // []float64 | []float32 | []fp16.Float16 | []int32
}

// Read parses a checkpoint from r.
func Read(r io.Reader) (*Checkpoint, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %x", magic)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: header length: %w", err)
	}
	hdrLen := binary.LittleEndian.Uint32(lenBuf[:])
	if hdrLen > 1<<24 {
		return nil, fmt.Errorf("checkpoint: implausible header length %d", hdrLen)
	}
	hdrBytes := make([]byte, hdrLen)
	if _, err := io.ReadFull(r, hdrBytes); err != nil {
		return nil, fmt.Errorf("checkpoint: header body: %w", err)
	}
	ck := &Checkpoint{arrays: make(map[string]any)}
	if err := json.Unmarshal(hdrBytes, &ck.Header); err != nil {
		return nil, fmt.Errorf("checkpoint: header JSON: %w", err)
	}
	for _, info := range ck.Header.Arrays {
		n, err := info.payloadBytes()
		if err != nil {
			return nil, err
		}
		if n > 1<<31 {
			return nil, fmt.Errorf("checkpoint: array %q implausibly large", info.Name)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("checkpoint: array %q: %w", info.Name, err)
		}
		switch info.Kind {
		case ZFP2D:
			xs, _, _, err := zfp.Decompress2D(body)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: array %q: %w", info.Name, err)
			}
			if len(xs) != info.Len {
				return nil, fmt.Errorf("checkpoint: array %q decompressed to %d values, want %d", info.Name, len(xs), info.Len)
			}
			ck.arrays[info.Name] = xs
		case F64:
			xs := make([]float64, info.Len)
			for i := range xs {
				xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
			}
			ck.arrays[info.Name] = xs
		case F32:
			xs := make([]float32, info.Len)
			for i := range xs {
				xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
			}
			ck.arrays[info.Name] = xs
		case F16:
			xs := make([]fp16.Float16, info.Len)
			for i := range xs {
				xs[i] = fp16.FromBits(binary.LittleEndian.Uint16(body[2*i:]))
			}
			ck.arrays[info.Name] = xs
		case I32:
			xs := make([]int32, info.Len)
			for i := range xs {
				xs[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
			}
			ck.arrays[info.Name] = xs
		}
	}
	return ck, nil
}

// Float64Array returns the named array widened to []float64 regardless of
// its stored encoding (integers are not widened).
func (ck *Checkpoint) Float64Array(name string) ([]float64, error) {
	switch xs := ck.arrays[name].(type) {
	case []float64:
		return xs, nil
	case []float32:
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x)
		}
		return out, nil
	case []fp16.Float16:
		return fp16.ToSlice64(nil, xs), nil
	case nil:
		return nil, fmt.Errorf("checkpoint: no array %q", name)
	default:
		return nil, fmt.Errorf("checkpoint: array %q is not floating point", name)
	}
}

// Int32Array returns the named int32 array.
func (ck *Checkpoint) Int32Array(name string) ([]int32, error) {
	switch xs := ck.arrays[name].(type) {
	case []int32:
		return xs, nil
	case nil:
		return nil, fmt.Errorf("checkpoint: no array %q", name)
	default:
		return nil, fmt.Errorf("checkpoint: array %q is not int32", name)
	}
}
