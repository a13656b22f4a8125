package mpi_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"dampi/mpi"
)

// TestStressWildcardMailbox hammers a single receiver's mailbox from many
// senders while the receiver drains with wildcard receives. It is the
// matching engine's torture test (run it under -race: the coroutine hand-off
// is the only synchronization between ranks): every sender's stream must
// arrive without overtaking per (source, comm, tag) however the deliveries
// from different sources interleave.
func TestStressWildcardMailbox(t *testing.T) {
	const (
		senders = 8
		msgs    = 200
		tags    = 3
	)
	w := mpi.NewWorld(mpi.Config{Procs: senders + 1})
	err := w.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() > 0 {
			// Sender: msgs messages round-robining over tags; the payload
			// carries (tag, per-tag sequence) so the receiver can check FIFO
			// per stream.
			seq := make([]uint32, tags)
			buf := make([]byte, 8)
			for i := 0; i < msgs; i++ {
				tag := i % tags
				binary.LittleEndian.PutUint32(buf, uint32(tag))
				binary.LittleEndian.PutUint32(buf[4:], seq[tag])
				seq[tag]++
				if err := p.Send(0, tag, buf, c); err != nil {
					return err
				}
			}
			return nil
		}
		// Receiver: fully wildcard — any source, any tag — so the matching
		// engine alone decides pairing. next[src][tag] is the expected
		// sequence number of the stream's next message.
		next := make([][]uint32, senders+1)
		for i := range next {
			next[i] = make([]uint32, tags)
		}
		for n := 0; n < senders*msgs; n++ {
			data, st, err := p.Recv(mpi.AnySource, mpi.AnyTag, c)
			if err != nil {
				return err
			}
			tag := binary.LittleEndian.Uint32(data)
			seq := binary.LittleEndian.Uint32(data[4:])
			if int(tag) != st.Tag {
				return fmt.Errorf("message tagged %d delivered with status tag %d", tag, st.Tag)
			}
			if want := next[st.Source][tag]; seq != want {
				return fmt.Errorf("overtaking on (src=%d, tag=%d): got seq %d, want %d",
					st.Source, tag, seq, want)
			}
			next[st.Source][tag]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStressProbeWildcard mixes Iprobe polling into the wildcard drain so the
// lock-free probe fast path races against concurrent deliveries.
func TestStressProbeWildcard(t *testing.T) {
	const (
		senders = 4
		msgs    = 150
	)
	w := mpi.NewWorld(mpi.Config{Procs: senders + 1})
	err := w.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() > 0 {
			buf := make([]byte, 4)
			for i := 0; i < msgs; i++ {
				binary.LittleEndian.PutUint32(buf, uint32(i))
				if err := p.Send(0, 0, buf, c); err != nil {
					return err
				}
			}
			return nil
		}
		next := make([]uint32, senders+1)
		for n := 0; n < senders*msgs; {
			st, ok, err := p.Iprobe(mpi.AnySource, 0, c)
			if err != nil {
				return err
			}
			if !ok {
				runtime.Gosched()
				continue
			}
			// Receive from the probed source specifically: the probed
			// message must still be first in that source's stream.
			data, st2, err := p.Recv(st.Source, 0, c)
			if err != nil {
				return err
			}
			if st2.Source != st.Source {
				return fmt.Errorf("probed source %d but received from %d", st.Source, st2.Source)
			}
			seq := binary.LittleEndian.Uint32(data)
			if want := next[st.Source]; seq != want {
				return fmt.Errorf("overtaking on src=%d: got seq %d, want %d", st.Source, seq, want)
			}
			next[st.Source]++
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
