// Package trace renders a workload frame through the render cache
// complex to produce its LLC access trace — the equivalent of the
// paper's "LLC load/store access trace collected from the detailed
// simulator for each frame" (Section 2) — and stores traces on disk in a
// binary container. Both directions work on the packed stream.Trace,
// whose 9-byte record is also the on-disk record.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"gspc/internal/memmap"
	"gspc/internal/pipeline"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/workload"
)

// sizeHints remembers the most recent trace length per (job, scale), so
// repeat synthesis of a frame — benchmarks, sweeps with the trace cache
// disabled or evicting — pre-sizes its trace instead of paying a
// dozen append regrowths of a multi-megabyte buffer. The hint only
// shapes allocation, never content.
var sizeHints sync.Map // "job|scale" -> int

func hintKey(job workload.FrameJob, scale float64) string {
	return fmt.Sprintf("%s|%g", job.ID(), scale)
}

// EstimateAccesses returns the expected LLC trace length for a frame at
// the given scale: the remembered length of the last synthesis of this
// exact (job, scale), otherwise an area-proportional estimate from any
// recorded scale of the same job, otherwise a conservative floor.
func EstimateAccesses(job workload.FrameJob, scale float64) int {
	if v, ok := sizeHints.Load(hintKey(job, scale)); ok {
		return v.(int)
	}
	// Trace length grows roughly with frame area. A small floor avoids
	// silly tiny allocations without risking a large over-commit.
	est := int(float64(job.App.Width) * float64(job.App.Height) * scale * scale / 4)
	if est < 4096 {
		est = 4096
	}
	return est
}

func recordSize(job workload.FrameJob, scale float64, n int) {
	sizeHints.Store(hintKey(job, scale), n)
}

// GeneratePacked renders one suite frame at the given linear scale
// through a render cache complex (scaled to match) and returns the
// resulting LLC access trace.
//
// The render caches are scaled by the linear factor, not by area: their
// working sets are dominated by rows of surface tiles (line buffers),
// whose footprint grows with resolution, not with pixel count. Scaling
// them linearly keeps the filtered LLC stream mix representative of the
// full-resolution configuration.
func GeneratePacked(job workload.FrameJob, scale float64) *stream.Trace {
	t := stream.NewTrace(EstimateAccesses(job, scale))
	GeneratePackedInto(t, job, scale, rendercache.DefaultConfig().Scaled(scale))
	return t
}

// GeneratePackedInto renders a frame into an existing packed trace
// buffer, appending after whatever capacity Reset left behind — the
// buffer-reuse hook for sweeps that synthesize many frames serially.
// The buffer is reset first; on return it holds exactly the new frame.
func GeneratePackedInto(t *stream.Trace, job workload.FrameJob, scale float64, cfg rendercache.Config) {
	t.Reset()
	t.Grow(EstimateAccesses(job, scale))
	render(t, job.ID(), job.Build(scale), cfg)
	recordSize(job, scale, t.Len())
}

// GenerateLayoutInto is GeneratePackedInto with an explicit tile layout
// for the GPU-internal surfaces (the row-major vs Morton ablation). The
// size hints are keyed by job and scale only, so a layout render neither
// reads nor updates them.
func GenerateLayoutInto(t *stream.Trace, job workload.FrameJob, scale float64, cfg rendercache.Config, layout memmap.Layout) {
	t.Reset()
	render(t, job.ID(), job.App.BuildFrameLayout(job.Index, scale, layout), cfg)
}

// render validates frame and renders it through a render cache complex
// configured by cfg, emitting the LLC access stream into sink. Every
// synthesis path goes through it, so no invalid frame is ever rendered.
func render(sink stream.Sink, id string, frame *pipeline.Frame, cfg rendercache.Config) {
	if err := frame.Validate(); err != nil {
		panic(fmt.Sprintf("trace: invalid frame %s: %v", id, err))
	}
	pipeline.NewRenderer(rendercache.New(cfg, sink)).RenderFrame(frame)
}

// prefixDone is the sentinel a limitSink panics with to abort rendering
// once the prefix budget is reached; GeneratePackedPrefix recovers it.
type prefixDone struct{}

// limitSink forwards LLC accesses into the packed trace until limit
// records have been collected, then aborts the render by panicking with
// the prefixDone sentinel. Rendering emission is deterministic, so the
// collected records are exactly the first limit records of the full
// frame trace.
type limitSink struct {
	t     *stream.Trace
	limit int
}

func (s *limitSink) Emit(a stream.Access) {
	s.t.Append(a)
	if s.t.Len() >= s.limit {
		panic(prefixDone{})
	}
}

// GeneratePackedPrefix renders a frame into t but stops as soon as limit
// LLC records have been emitted, aborting the rest of the render. The
// result is bit-identical to the first min(limit, full) records of
// GeneratePackedInto with the same arguments: emission order is
// deterministic and the renderer holds no state outside the per-call
// render-cache complex, so cutting the render short cannot perturb the
// prefix. Unlike GeneratePackedInto it never updates the size hints —
// a truncated length must not shape later full syntheses (content is
// never affected by hints, but sampled runs must also stay independent
// of process history for bit-determinism of their own bookkeeping).
func GeneratePackedPrefix(t *stream.Trace, job workload.FrameJob, scale float64, cfg rendercache.Config, limit int) {
	t.Reset()
	if limit <= 0 {
		return
	}
	t.Grow(limit)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(prefixDone); !ok {
				panic(r)
			}
		}
	}()
	render(&limitSink{t: t, limit: limit}, job.ID(), job.Build(scale), cfg)
}

// Binary container format:
//
//	magic   [8]byte  "GSPCTRC1"
//	count   uint64
//	records count * { addr uint64, meta uint8 }   (little endian)
//
// where meta packs the stream kind in bits 0..6 and the write flag in
// bit 7.

var magic = [8]byte{'G', 'S', 'P', 'C', 'T', 'R', 'C', '1'}

// ErrBadMagic reports a container that is not a GSPC trace.
var ErrBadMagic = errors.New("trace: bad magic")

// WriteTrace stores a trace in the binary container format. The on-disk
// record (addr uint64 + meta uint8) is exactly the packed in-memory
// record.
func WriteTrace(w io.Writer, t *stream.Trace) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(t.Len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [stream.RecordBytes]byte
	addrs, meta := t.Records()
	for i, addr := range addrs {
		binary.LittleEndian.PutUint64(rec[:8], addr)
		rec[8] = meta[i]
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace loads a trace from the binary container format. It is the
// one decoder for traces read from disk, so it treats its input as
// untrusted: a bad magic, an implausible or truncated record count, or
// an invalid stream kind is an error, never a panic or a huge
// allocation.
func ReadTrace(r io.Reader) (*stream.Trace, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	const maxReasonable = 1 << 32
	if count > maxReasonable {
		return nil, fmt.Errorf("trace: implausible record count %d", count)
	}
	// Pre-size conservatively: the count comes from an untrusted header,
	// so cap the up-front allocation and let append grow the rest as
	// records actually arrive (a truncated file then fails fast instead
	// of allocating gigabytes).
	capHint := int(count)
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	t := stream.NewTrace(capHint)
	var rec [9]byte
	for i := int64(0); i < int64(count); i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: truncated at record %d: %w", i, err)
		}
		k, wr := stream.UnpackMeta(rec[8])
		if !k.Valid() {
			return nil, fmt.Errorf("trace: record %d has invalid kind %d", i, rec[8]&0x7f)
		}
		t.Append(stream.Access{Addr: binary.LittleEndian.Uint64(rec[:8]), Kind: k, Write: wr})
	}
	return t, nil
}
