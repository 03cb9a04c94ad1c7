package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"scionmpr/internal/addr"
	"scionmpr/internal/codec"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// Checkpointer is implemented by stateful selectors that support run
// checkpoint/resume: AppendState serializes the selector's full state in
// canonical (content-determined) byte order, and RestoreState rebuilds it
// on a freshly constructed instance of the same configuration. Stateless
// selectors (the baseline) need not implement it — a resumed run simply
// constructs them anew.
type Checkpointer interface {
	AppendState(dst []byte) []byte
	RestoreState(b []byte) error
}

// appendSentMap serializes a Sent PCBs List in canonical order: egress
// interfaces ascending, then path keys in byte order. Expired records are
// written verbatim — Revoke walks them for counter rollback, so pruning
// here would change post-resume behavior.
func appendSentMap(dst []byte, sent map[addr.IfID]map[string]sentRecord) []byte {
	egs := make([]addr.IfID, 0, len(sent))
	total := 0
	for eg, byKey := range sent {
		if len(byKey) == 0 {
			continue
		}
		egs = append(egs, eg)
		total += len(byKey)
	}
	sort.Slice(egs, func(i, j int) bool { return egs[i] < egs[j] })
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	var keys []string
	for _, eg := range egs {
		byKey := sent[eg]
		keys = keys[:0]
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rec := byKey[k]
			dst = binary.BigEndian.AppendUint16(dst, uint16(eg))
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(k)))
			dst = append(dst, k...)
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rec.diversity))
			dst = binary.BigEndian.AppendUint64(dst, uint64(rec.timestamp))
			dst = binary.BigEndian.AppendUint64(dst, uint64(rec.expiry))
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.links)))
			for _, id := range rec.links {
				dst = binary.BigEndian.AppendUint32(dst, id)
			}
			dst = binary.BigEndian.AppendUint64(dst, rec.origin.Uint64())
			dst = binary.BigEndian.AppendUint64(dst, rec.neighbor.Uint64())
		}
	}
	return dst
}

func readSentMap(r *codec.Reader) map[addr.IfID]map[string]sentRecord {
	sent := map[addr.IfID]map[string]sentRecord{}
	n := r.Count(2 + 4 + 3*8 + 4 + 2*8)
	for i := 0; i < n; i++ {
		eg := addr.IfID(r.U16())
		key := string(r.Bytes(int(r.U32())))
		var rec sentRecord
		rec.diversity = math.Float64frombits(r.U64())
		rec.timestamp = sim.Time(r.U64())
		rec.expiry = sim.Time(r.U64())
		if nl := r.Count(4); nl > 0 {
			rec.links = make([]uint32, nl)
			for j := range rec.links {
				rec.links[j] = r.U32()
			}
		}
		rec.origin = addr.IAFromUint64(r.U64())
		rec.neighbor = addr.IAFromUint64(r.U64())
		byKey := sent[eg]
		if byKey == nil {
			byKey = map[string]sentRecord{}
			sent[eg] = byKey
		}
		byKey[key] = rec
	}
	return sent
}

// AppendState implements Checkpointer for the diversity algorithm. The
// serialized state is the interned-id table, the Link History Tables, and
// the Sent PCBs Lists — everything future Select/Revoke decisions read.
// The per-PCB id cache and Select scratch are derived state and rebuilt
// on demand after a restore.
func (d *Diversity) AppendState(dst []byte) []byte {
	// Interned ids are dense 1..n; writing the keys in id order lets
	// RestoreState reassign identical ids, which the Link History Tables
	// and sent-record link lists below reference.
	keys := make([]seg.LinkKey, len(d.ids))
	for lk, id := range d.ids {
		keys[id-1] = lk
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
	for _, lk := range keys {
		dst = binary.BigEndian.AppendUint64(dst, lk.IA.Uint64())
		dst = binary.BigEndian.AppendUint16(dst, uint16(lk.If))
	}

	// Link History Tables as (origin, neighbor, id, count) tuples in
	// canonical order. Zero counters are equivalent to absent ones for
	// every reader (lookups default to zero), so they are skipped.
	type histEntry struct {
		origin, neighbor addr.IA
		id               uint32
		count            int32
	}
	var hist []histEntry
	for origin, byN := range d.hist {
		for neighbor, t := range byN {
			for id, c := range t {
				if c != 0 {
					hist = append(hist, histEntry{origin, neighbor, id, c})
				}
			}
		}
	}
	sort.Slice(hist, func(i, j int) bool {
		a, b := hist[i], hist[j]
		if a.origin != b.origin {
			return a.origin.Less(b.origin)
		}
		if a.neighbor != b.neighbor {
			return a.neighbor.Less(b.neighbor)
		}
		return a.id < b.id
	})
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(hist)))
	for _, e := range hist {
		dst = binary.BigEndian.AppendUint64(dst, e.origin.Uint64())
		dst = binary.BigEndian.AppendUint64(dst, e.neighbor.Uint64())
		dst = binary.BigEndian.AppendUint32(dst, e.id)
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.count))
	}

	return appendSentMap(dst, d.sent)
}

// RestoreState implements Checkpointer for the diversity algorithm.
func (d *Diversity) RestoreState(b []byte) error {
	r := codec.NewReader(b)
	nIDs := r.Count(8 + 2)
	ids := make(map[seg.LinkKey]uint32, nIDs)
	for i := 0; i < nIDs; i++ {
		lk := seg.LinkKey{IA: addr.IAFromUint64(r.U64()), If: addr.IfID(r.U16())}
		ids[lk] = uint32(i) + 1
	}
	nHist := r.Count(8 + 8 + 4 + 4)
	hist := map[addr.IA]map[addr.IA]map[uint32]int32{}
	for i := 0; i < nHist; i++ {
		origin := addr.IAFromUint64(r.U64())
		neighbor := addr.IAFromUint64(r.U64())
		id := r.U32()
		count := int32(r.U32())
		byN := hist[origin]
		if byN == nil {
			byN = map[addr.IA]map[uint32]int32{}
			hist[origin] = byN
		}
		t := byN[neighbor]
		if t == nil {
			t = map[uint32]int32{}
			byN[neighbor] = t
		}
		t[id] = count
	}
	sent := readSentMap(&r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: selector state: %w", err)
	}
	d.ids = ids
	d.hist = hist
	d.sent = sent
	d.baseIDs = map[*seg.PCB][]uint32{}
	return nil
}

// AppendState implements Checkpointer for the latency-aware selector,
// whose only mutable state is its Sent PCBs List.
func (l *LatencyAware) AppendState(dst []byte) []byte {
	return appendSentMap(dst, l.sent)
}

// RestoreState implements Checkpointer for the latency-aware selector.
func (l *LatencyAware) RestoreState(b []byte) error {
	r := codec.NewReader(b)
	sent := readSentMap(&r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: selector state: %w", err)
	}
	l.sent = sent
	return nil
}
