// Package piggyback implements DAMPI's clock transport (paper §II-D): the
// separate-message piggyback mechanism over a private matching context.
//
// Every application send is accompanied by a piggyback message carrying the
// sender's logical clock on the tool context of the payload's communicator
// (mpi.PMPI.Tool) — the paper's shadow communicator, which its tool must
// MPI_Comm_dup and this runtime gives every communicator; every receive posts
// (or defers) a matching piggyback receive there. The context preserves the
// payload communicator's (source, tag) FIFO ordering, so the i-th payload
// message from a peer pairs with the i-th piggyback message from that peer.
//
// The delicate case from the paper is the wildcard nonblocking receive: the
// source is unknown at post time, so blindly posting a wildcard piggyback
// receive can pair the wrong messages and deadlock the tool. Following the
// paper, the piggyback receive for a wildcard Irecv is posted only at
// completion (Wait/Test), when the source is known (RecvClockFrom).
package piggyback

import (
	"encoding/binary"
	"fmt"

	"dampi/mpi"
)

// AppendClock serializes a logical clock (Lamport: one element; vector: N)
// onto dst, reusing its capacity, and returns the extended slice: a caller
// that keeps a scratch buffer encodes without allocating.
func AppendClock(dst []byte, clock []uint64) []byte {
	for _, v := range clock {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// DecodeClockInto deserializes a logical clock into dst's storage when it has
// the capacity (allocating only when it doesn't) and returns the decoded
// clock.
func DecodeClockInto(dst []uint64, b []byte) []uint64 {
	n := len(b) / 8
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]uint64, n)
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return dst
}

// Rank is the per-rank piggyback state. Methods must be called from the
// owning rank's goroutine. All traffic goes through PMPI (unhooked) calls.
//
// The encode/decode scratch buffers make the steady-state clock path
// allocation-free: clocks returned by WaitClock/RecvClockFrom alias decBuf
// and are valid only until the next clock receive on this Rank — callers
// must merge or copy before receiving again.
type Rank struct {
	p *mpi.Proc

	encBuf []byte   // scratch for AppendClock in SendClock
	decBuf []uint64 // scratch for DecodeClockInto; aliased by returned clocks
}

// NewRank creates the piggyback state for p.
func NewRank(p *mpi.Proc) *Rank {
	return &Rank{p: p}
}

// Reset rebinds the Rank to a fresh proc (the same rank of a new world),
// keeping the scratch buffers so a replay sequence stops allocating after the
// first run.
func (r *Rank) Reset(p *mpi.Proc) {
	r.p = p
}

// SendClock sends the piggyback message accompanying a payload send to
// (dest, tag) on c. Returns the piggyback request (eager; waited lazily).
func (r *Rank) SendClock(dest, tag int, c mpi.Comm, clock []uint64) (*mpi.Request, error) {
	pm := r.p.PMPI()
	tc, err := pm.Tool(c)
	if err != nil {
		return nil, err
	}
	// Isend copies the payload before returning, so the scratch buffer is
	// immediately reusable.
	r.encBuf = AppendClock(r.encBuf[:0], clock)
	return pm.Isend(dest, tag, r.encBuf, tc)
}

// PostRecvClock posts the piggyback receive paired with a deterministic
// payload receive from (src, tag) on c.
func (r *Rank) PostRecvClock(src, tag int, c mpi.Comm) (*mpi.Request, error) {
	pm := r.p.PMPI()
	tc, err := pm.Tool(c)
	if err != nil {
		return nil, err
	}
	return pm.Irecv(src, tag, tc)
}

// WaitClock completes a posted piggyback receive and decodes the clock. The
// returned clock aliases the Rank's decode buffer: it is valid until the
// next clock receive. The payload buffer and the request itself go back to
// the runtime's reuse pools: req must not be used afterwards.
func (r *Rank) WaitClock(req *mpi.Request) ([]uint64, error) {
	if _, err := r.p.PMPI().Wait(req); err != nil {
		return nil, err
	}
	r.decBuf = DecodeClockInto(r.decBuf, req.Data())
	req.Release()
	req.Free()
	return r.decBuf, nil
}

// RecvClockFrom receives the piggyback for a completed wildcard receive,
// now that the payload's source and tag are known (paper §II-D: deferred
// piggyback receive). The returned clock aliases the Rank's decode buffer:
// it is valid until the next clock receive.
func (r *Rank) RecvClockFrom(src, tag int, c mpi.Comm) ([]uint64, error) {
	req, err := r.PostRecvClock(src, tag, c)
	if err != nil {
		return nil, err
	}
	return r.WaitClock(req)
}

// DrainSend completes the piggyback send paired with a completed payload
// send (eager, so this never blocks in practice) and recycles its request:
// req must not be used afterwards.
func (r *Rank) DrainSend(req *mpi.Request) error {
	_, err := r.p.PMPI().Wait(req)
	req.Free()
	return err
}

// --- In-band ("data payload packing") transport ----------------------------
//
// The paper (§II-D) lists three piggyback mechanisms: data payload packing,
// datatype packing, and separate messages, choosing separate messages for
// implementation simplicity. The in-band transport implements payload
// packing as the alternative: the clock travels inside the payload itself
// ([u32 clock words][clock...][payload]), halving message count at the cost
// of touching every payload (and of probes seeing the packed length).

// AppendPacked prepends a clock to a payload: it serializes [clock
// header][clock][payload] onto dst, reusing its capacity.
func AppendPacked(dst []byte, clock []uint64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(clock)))
	dst = AppendClock(dst, clock)
	return append(dst, payload...)
}

// UnpackInto splits a packed payload back into clock and application data,
// decoding the clock into dst's storage when it has the capacity. The
// returned payload aliases b.
func UnpackInto(dst []uint64, b []byte) (clock []uint64, payload []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("piggyback: packed payload too short (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+8*n {
		return nil, nil, fmt.Errorf("piggyback: packed payload truncated (%d bytes, %d clock words)", len(b), n)
	}
	return DecodeClockInto(dst, b[4:4+8*n]), b[4+8*n:], nil
}
