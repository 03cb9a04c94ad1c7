package chaos

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/codec"
	"scionmpr/internal/topology"
)

// AppendState serializes the engine's fault bookkeeping in canonical
// order: overlap depth counters per link and AS, the active gray-rate and
// delay-spike stacks (in push order — pop removes the first matching
// value, so order is behavior), and the per-kind injection counts.
//
// A resumed run re-derives the fault plan itself by re-running Apply with
// the same schedule (the plan is a pure function of the schedule's seed);
// this state carries only what the surviving recover actions need to
// unwind correctly across the checkpoint boundary.
func (e *Engine) AppendState(dst []byte) []byte {
	linkKeys := func(n int) []topology.LinkID { return make([]topology.LinkID, 0, n) }

	ids := linkKeys(len(e.failDepth))
	for id := range e.failDepth {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.failDepth[id]))
	}

	ids = linkKeys(len(e.grayRates))
	for id := range e.grayRates {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		rates := e.grayRates[id]
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(rates)))
		for _, r := range rates {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r))
		}
	}

	ids = linkKeys(len(e.spikes))
	for id := range e.spikes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		ds := e.spikes[id]
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(ds)))
		for _, d := range ds {
			dst = binary.BigEndian.AppendUint64(dst, uint64(d))
		}
	}

	ias := make([]addr.IA, 0, len(e.crashDepth))
	for ia := range e.crashDepth {
		ias = append(ias, ia)
	}
	sort.Slice(ias, func(i, j int) bool { return ias[i].Less(ias[j]) })
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ias)))
	for _, ia := range ias {
		dst = binary.BigEndian.AppendUint64(dst, ia.Uint64())
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.crashDepth[ia]))
	}

	kinds := make([]int, 0, len(e.Injections))
	for k := range e.Injections {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(kinds)))
	for _, k := range kinds {
		dst = binary.BigEndian.AppendUint32(dst, uint32(k))
		dst = binary.BigEndian.AppendUint64(dst, e.Injections[Kind(k)])
	}
	return dst
}

// RestoreState rebuilds the bookkeeping serialized by AppendState on a
// freshly constructed engine. Call it before Apply, which registers the
// surviving fault-plan actions.
func (e *Engine) RestoreState(b []byte) error {
	r := codec.NewReader(b)
	n := r.Count(4 + 4)
	for i := 0; i < n; i++ {
		id, depth := topology.LinkID(r.U32()), int(r.U32())
		e.failDepth[id] = depth
	}
	n = r.Count(4 + 4)
	for i := 0; i < n; i++ {
		id := topology.LinkID(r.U32())
		rates := make([]float64, r.Count(8))
		for j := range rates {
			rates[j] = math.Float64frombits(r.U64())
		}
		e.grayRates[id] = rates
	}
	n = r.Count(4 + 4)
	for i := 0; i < n; i++ {
		id := topology.LinkID(r.U32())
		ds := make([]time.Duration, r.Count(8))
		for j := range ds {
			ds[j] = time.Duration(r.U64())
		}
		e.spikes[id] = ds
	}
	n = r.Count(8 + 4)
	for i := 0; i < n; i++ {
		ia, depth := addr.IAFromUint64(r.U64()), int(r.U32())
		e.crashDepth[ia] = depth
	}
	n = r.Count(4 + 8)
	for i := 0; i < n; i++ {
		k, count := Kind(r.U32()), r.U64()
		e.Injections[k] = count
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("chaos: engine state: %w", err)
	}
	return nil
}
