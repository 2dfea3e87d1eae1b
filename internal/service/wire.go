package service

// Shard wire codec: the POST /v1/shards request and response bodies are
// one versioned binary frame format, encoded with encoding/binary.
//
//	frame    = magic "dsym" | version byte | kind byte ('Q' or 'R') | body
//	request  = spec blob | cells: n × (policy, point, rep: varint | hash)
//	response = elapsed_ms f64 | spans: n × (name, cat, lane | start, end: f64)
//	           | results: n × (hash | 0 metrics | 1 error string)
//	metrics  = seed uvarint | tput, mk: f64 | tasks varint
//	           | busy: n × f64 | hist: n × (leader, width, count: varint | frac f64)
//	           | iters: n × (iter, tasks: varint | start, end: f64 | places: n × varint)
//	           | steals, fsteals, disp: varint
//
// A count or length is a uvarint before its elements, a string or blob is
// its length then its bytes, a float is its IEEE-754 bits as 8
// little-endian bytes (so every value crosses bit-exactly) and a signed
// integer is a zig-zag varint. The encoding is canonical: the decoder
// rejects non-minimal varints, unknown tags and trailing bytes, so a frame
// that decodes re-encodes to the same bytes. The decoder never trusts a
// length prefix: a count must fit the input left, at its elements'
// smallest encoding, before anything is allocated for it.
//
// Scheduler telemetry (RunMetrics.Sched) has no field: service jobs run
// unprobed, and encoding a cell that carries it is an error rather than a
// silent drop.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"dynasym/internal/metrics"
	"dynasym/internal/scenario"
	"dynasym/internal/topology"
)

const (
	// shardMagic opens every frame.
	shardMagic = "dsym"
	// shardVersion is the frame layout's version. Bump it with any change
	// to the layout: a peer on another version answers 409.
	shardVersion = 1
	// Frame kinds.
	frameRequest  = 'Q'
	frameResponse = 'R'
	// shardContentType labels frames on the wire.
	shardContentType = "application/octet-stream"
	// frameHeader is the magic, version and kind bytes.
	frameHeader = len(shardMagic) + 2
)

// errShardVersion marks a frame from a peer on another codec version.
var errShardVersion = errors.New("shard frame version skew")

// shardRequest is the POST /v1/shards body.
type shardRequest struct {
	// Spec is the plan's canonical spec encoding (JSON).
	Spec []byte
	// Cells are the shard's cells by grid coordinates. Hash is the
	// coordinator's cell hash; the worker rejects the shard if its own
	// derivation disagrees.
	Cells []shardCell
}

type shardCell struct {
	Policy, Point, Rep int
	Hash               string
}

// shardResponse is the POST /v1/shards reply: one entry per requested
// cell, in request order. ElapsedMS and Spans let the coordinator graft
// the worker's timeline into the job trace: ElapsedMS is the worker's
// wall time for the shard, and each span's Start/End are offsets (ms)
// from the worker's request receipt. The coordinator re-bases them into
// the attempt window assuming symmetric wire time, so no cross-node
// clock agreement is needed.
type shardResponse struct {
	Results   []shardCellResult
	ElapsedMS float64
	Spans     []wireSpan
}

// wireSpan is a worker-side trace span in wire form. Lane "" is the
// shard itself; other lanes (worker pool slots) are nested under the
// coordinator's attempt lane by prefixing.
type wireSpan struct {
	Name, Cat, Lane string
	StartMS, EndMS  float64
}

// shardCellResult carries a cell's metrics, or its error when Metrics is
// nil.
type shardCellResult struct {
	Hash    string
	Metrics *scenario.RunMetrics
	Error   string
}

// Result tags.
const (
	resultMetrics = 0
	resultError   = 1
)

// Smallest encodings, in bytes, of the decoder's repeated elements.
const (
	minCell   = 4           // three varints and an empty hash
	minSpan   = 3 + 2*8     // three empty strings and two floats
	minResult = 2           // empty hash and a tag
	minShare  = 3 + 8       // three varints and a float
	minIter   = 2 + 2*8 + 1 // two varints, two floats, empty places
)

func frameStart(b []byte, kind byte) []byte {
	b = append(b, shardMagic...)
	return append(b, shardVersion, kind)
}

// encodeShardRequest renders a request frame.
func encodeShardRequest(req shardRequest) ([]byte, error) {
	b := make([]byte, 0, frameHeader+binary.MaxVarintLen64+len(req.Spec)+len(req.Cells)*(3+1+64+3))
	b = frameStart(b, frameRequest)
	b = appendBlob(b, req.Spec)
	b = binary.AppendUvarint(b, uint64(len(req.Cells)))
	for _, c := range req.Cells {
		b = binary.AppendVarint(b, int64(c.Policy))
		b = binary.AppendVarint(b, int64(c.Point))
		b = binary.AppendVarint(b, int64(c.Rep))
		b = appendBlob(b, c.Hash)
	}
	return checkFrameSize(b)
}

// encodeShardResponse renders a response frame. It fails on a cell that
// carries Sched telemetry, which the frame has no field for.
func encodeShardResponse(resp shardResponse) ([]byte, error) {
	size := frameHeader + 8 + binary.MaxVarintLen64*2 + len(resp.Spans)*64
	for _, r := range resp.Results {
		size += 2 + len(r.Hash) + len(r.Error)
		if r.Metrics != nil {
			size += metricsSize(r.Metrics)
		}
	}
	b := make([]byte, 0, size)
	b = frameStart(b, frameResponse)
	b = appendFloat(b, resp.ElapsedMS)
	b = binary.AppendUvarint(b, uint64(len(resp.Spans)))
	for _, s := range resp.Spans {
		b = appendBlob(b, s.Name)
		b = appendBlob(b, s.Cat)
		b = appendBlob(b, s.Lane)
		b = appendFloat(b, s.StartMS)
		b = appendFloat(b, s.EndMS)
	}
	b = binary.AppendUvarint(b, uint64(len(resp.Results)))
	for _, r := range resp.Results {
		b = appendBlob(b, r.Hash)
		if r.Metrics == nil {
			b = append(b, resultError)
			b = appendBlob(b, r.Error)
			continue
		}
		if r.Metrics.Sched != nil {
			return nil, fmt.Errorf("cell %.12s carries Sched telemetry, which the shard wire does not encode", r.Hash)
		}
		b = append(b, resultMetrics)
		b = appendMetrics(b, r.Metrics)
	}
	return checkFrameSize(b)
}

func checkFrameSize(b []byte) ([]byte, error) {
	if len(b) > maxShardBytes {
		return nil, fmt.Errorf("shard frame of %d bytes exceeds the %d-byte bound", len(b), maxShardBytes)
	}
	return b, nil
}

// metricsSize bounds a cell's encoded size from above for most cells
// (small varints), so the response buffer rarely grows.
func metricsSize(rm *scenario.RunMetrics) int {
	n := 64 + 8*len(rm.CoreBusy) + 16*len(rm.HighHist)
	for _, st := range rm.Iters {
		n += 24 + len(st.Places)
	}
	return n
}

func appendMetrics(b []byte, rm *scenario.RunMetrics) []byte {
	b = binary.AppendUvarint(b, rm.Seed)
	b = appendFloat(b, rm.Throughput)
	b = appendFloat(b, rm.Makespan)
	b = binary.AppendVarint(b, rm.TasksDone)
	b = binary.AppendUvarint(b, uint64(len(rm.CoreBusy)))
	for _, v := range rm.CoreBusy {
		b = appendFloat(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(rm.HighHist)))
	for _, ps := range rm.HighHist {
		b = binary.AppendVarint(b, int64(ps.Place.Leader))
		b = binary.AppendVarint(b, int64(ps.Place.Width))
		b = binary.AppendVarint(b, ps.Count)
		b = appendFloat(b, ps.Frac)
	}
	b = binary.AppendUvarint(b, uint64(len(rm.Iters)))
	for _, st := range rm.Iters {
		b = binary.AppendVarint(b, int64(st.Iter))
		b = binary.AppendVarint(b, st.Tasks)
		b = appendFloat(b, st.Start)
		b = appendFloat(b, st.End)
		b = binary.AppendUvarint(b, uint64(len(st.Places)))
		for _, n := range st.Places {
			b = binary.AppendVarint(b, n)
		}
	}
	b = binary.AppendVarint(b, rm.Steals)
	b = binary.AppendVarint(b, rm.FailedSteals)
	return binary.AppendVarint(b, rm.Dispatches)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBlob[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decodeShardRequest parses a request frame. Spec aliases b.
func decodeShardRequest(b []byte) (shardRequest, error) {
	var req shardRequest
	d, err := openFrame(b, frameRequest)
	if err != nil {
		return req, err
	}
	req.Spec = d.blob()
	if n := d.count(minCell); n > 0 {
		req.Cells = make([]shardCell, n)
		for i := range req.Cells {
			c := &req.Cells[i]
			c.Policy, c.Point, c.Rep = d.int(), d.int(), d.int()
			c.Hash = d.str()
		}
	}
	return req, d.close()
}

// decodeShardResponse parses a response frame.
func decodeShardResponse(b []byte) (shardResponse, error) {
	var resp shardResponse
	d, err := openFrame(b, frameResponse)
	if err != nil {
		return resp, err
	}
	resp.ElapsedMS = d.float()
	if n := d.count(minSpan); n > 0 {
		resp.Spans = make([]wireSpan, n)
		for i := range resp.Spans {
			s := &resp.Spans[i]
			s.Name, s.Cat, s.Lane = d.str(), d.str(), d.str()
			s.StartMS, s.EndMS = d.float(), d.float()
		}
	}
	if n := d.count(minResult); n > 0 {
		resp.Results = make([]shardCellResult, n)
		for i := range resp.Results {
			r := &resp.Results[i]
			r.Hash = d.str()
			switch tag := d.byte(); tag {
			case resultMetrics:
				r.Metrics = d.metrics()
			case resultError:
				r.Error = d.str()
			default:
				d.fail("result %d has unknown tag %d", i, tag)
			}
			if d.err != nil {
				break
			}
		}
	}
	return resp, d.close()
}

// openFrame checks a frame's header and returns a decoder over its body.
// A frame of another version fails with errShardVersion.
func openFrame(b []byte, kind byte) (*frameDecoder, error) {
	switch {
	case len(b) > maxShardBytes:
		return nil, fmt.Errorf("shard frame of %d bytes exceeds the %d-byte bound", len(b), maxShardBytes)
	case len(b) < frameHeader || string(b[:len(shardMagic)]) != shardMagic:
		return nil, errors.New("not a shard frame")
	case b[len(shardMagic)] != shardVersion:
		return nil, fmt.Errorf("%w: frame version %d, this node speaks %d", errShardVersion, b[len(shardMagic)], shardVersion)
	case b[len(shardMagic)+1] != kind:
		return nil, fmt.Errorf("shard frame kind %q, want %q", b[len(shardMagic)+1], kind)
	}
	return &frameDecoder{b: b[frameHeader:]}, nil
}

// frameDecoder reads a frame body front to back. The first error sticks:
// later reads return zero values, so callers check it once at the end.
type frameDecoder struct {
	b   []byte
	err error
}

func (d *frameDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("decode shard frame: "+format, args...)
	}
	d.b = nil
}

// close reports the first error, or trailing bytes after a whole frame.
func (d *frameDecoder) close() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *frameDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n <= 0:
		d.fail("truncated or overlong varint")
		return 0
	case n > 1 && d.b[n-1] == 0:
		d.fail("non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *frameDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.AppendVarint
}

func (d *frameDecoder) int() int { return int(d.varint()) }

func (d *frameDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *frameDecoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads an element count and checks that many elements, each at
// least size bytes, fit in the input left.
func (d *frameDecoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// blob returns the next length-prefixed bytes, aliasing the input.
func (d *frameDecoder) blob() []byte {
	n := d.count(1)
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

func (d *frameDecoder) str() string { return string(d.blob()) }

func (d *frameDecoder) metrics() *scenario.RunMetrics {
	rm := &scenario.RunMetrics{
		Seed:       d.uvarint(),
		Throughput: d.float(),
		Makespan:   d.float(),
		TasksDone:  d.varint(),
	}
	if n := d.count(8); n > 0 {
		rm.CoreBusy = make([]float64, n)
		for i := range rm.CoreBusy {
			rm.CoreBusy[i] = d.float()
		}
	}
	if n := d.count(minShare); n > 0 {
		rm.HighHist = make([]metrics.PlaceShare, n)
		for i := range rm.HighHist {
			ps := &rm.HighHist[i]
			ps.Place = topology.Place{Leader: d.int(), Width: d.int()}
			ps.Count = d.varint()
			ps.Frac = d.float()
		}
	}
	if n := d.count(minIter); n > 0 {
		rm.Iters = d.iters(n)
	}
	rm.Steals, rm.FailedSteals, rm.Dispatches = d.varint(), d.varint(), d.varint()
	return rm
}

// iters decodes n iteration rows, carving their place counts from one
// backing array the way metrics.Collector.IterStats does.
func (d *frameDecoder) iters(n int) []metrics.IterStat {
	out := make([]metrics.IterStat, n)
	ends := make([]int, n)
	var places []int64
	for i := range out {
		st := &out[i]
		st.Iter, st.Tasks = d.int(), d.varint()
		st.Start, st.End = d.float(), d.float()
		w := d.count(1)
		if places == nil {
			// Rows of one run share the place table's width.
			places = make([]int64, 0, min(n*w, len(d.b)))
		}
		for range w {
			places = append(places, d.varint())
		}
		ends[i] = len(places)
		if d.err != nil {
			return nil
		}
	}
	start := 0
	for i := range out {
		if ends[i] > start {
			out[i].Places = places[start:ends[i]:ends[i]]
		}
		start = ends[i]
	}
	return out
}

// readFrame reads a whole frame body of at most maxShardBytes; size is
// the declared Content-Length (-1 when unknown), used to size the buffer.
func readFrame(r io.Reader, size int64) ([]byte, error) {
	if size > maxShardBytes {
		return nil, fmt.Errorf("shard frame of %d bytes exceeds the %d-byte bound", size, maxShardBytes)
	}
	var buf bytes.Buffer
	if size > 0 {
		buf.Grow(int(size) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(r, maxShardBytes+1)); err != nil {
		return nil, err
	}
	if buf.Len() > maxShardBytes {
		return nil, fmt.Errorf("shard frame exceeds the %d-byte bound", maxShardBytes)
	}
	return buf.Bytes(), nil
}

// writeFrame sends an encoded frame as a 200 response.
func writeFrame(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", shardContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}
