package fsdp

import (
	"bytes"
	"hash/maphash"
	"slices"

	"nonstopsql/internal/poison"
	"nonstopsql/internal/record"
)

// A GroupTable is a set of GROUP BY groups and their partial states, and
// the one group table there is. The Disk Process folds a conversation's
// records into one on its Subset Control Block (AGG^FIRST/NEXT), the File
// System merges the entries the Disk Processes ship into one the
// statement owns (Merge), and the requester folds rows into one when the
// aggregate does not decompose. A group is four numbers, not a heap
// object: its bytes lie in one block — the order-preserving key encoding
// it is found and ordered by, then its key values' wire encoding, the
// bytes a reply entry ships — and its partials in one slice, ncols a
// group, in the order the groups appeared. Reset keeps every arena's
// capacity, so a table that has held a block's worth of groups holds the
// next block's without allocating.
//
// A group is found one of two ways. Lookup probes by key bytes; LookupInt
// by a lone INTEGER key, whose key bytes the caller builds only when the
// group is new. One table must find one key value one way only — the Disk
// Process decides by the record's key field — or it holds it twice.
//
// A GroupTable is used by one goroutine at a time; the zero table is
// ready for Reset.
type GroupTable struct {
	block    []byte       // key bytes and encoded key values, group after group
	groups   []group      // in the order they appeared, until Sort
	table    []groupSlot  // open-addressed, at most half full
	partials []AggPartial // ncols per group
	ncols    int

	pend *groupSlot // the empty slot the last lookup that missed stopped at
	// Merge's scratch: an entry's key values and partials, borrowing it,
	// and its key bytes.
	kv record.Row
	ps []AggPartial
	kb []byte

	// undo and at are the groups as they stood at Mark, for Rewind.
	undo []AggPartial
	at   struct{ block, groups int }
}

// group is one group: block[off:keyEnd] its key bytes, block[keyEnd:end]
// its key values' encoding, partials[part:part+ncols] its partial states.
type group struct {
	off, keyEnd, end uint32
	part             uint32
}

// groupSlot is one entry of the open-addressed table: the group it names
// and, for a group found by its INTEGER key, that key beside it, so a
// probe reads the slot and nothing else.
type groupSlot struct {
	key   int64  // the group's INTEGER key, when isInt
	group uint32 // index into groups, plus one; zero is an empty slot
	isInt bool   // found by LookupInt, not by its key bytes
}

// Reset empties the table for groups of ncols partials each, keeping
// what it has grown. Under the race detector the groups' bytes are
// poisoned first, so a read through a stale alias returns a wrong answer a
// test can see.
func (t *GroupTable) Reset(ncols int) {
	poison.Fill(t.block)
	clear(t.partials) // drop MIN/MAX strings
	clear(t.table)
	t.block, t.groups, t.partials, t.ncols, t.pend = t.block[:0], t.groups[:0], t.partials[:0], ncols, nil
}

// Len returns the number of groups.
func (t *GroupTable) Len() int { return len(t.groups) }

// Key returns group g's key bytes.
func (t *GroupTable) Key(g int) []byte { gr := &t.groups[g]; return t.block[gr.off:gr.keyEnd] }

// Fields returns group g's key values, each as record.AppendValue wrote it.
func (t *GroupTable) Fields(g int) []byte { gr := &t.groups[g]; return t.block[gr.keyEnd:gr.end] }

// Partials returns group g's partial states, one per column.
func (t *GroupTable) Partials(g int) []AggPartial {
	p := int(t.groups[g].part)
	return t.partials[p : p+t.ncols : p+t.ncols]
}

// Lookup returns the group whose key bytes are kb. When there is none,
// ok is false and Add inserts it.
func (t *GroupTable) Lookup(kb []byte) (g int, ok bool) {
	t.room()
	mask := uint64(len(t.table) - 1)
	for i := maphash.Bytes(groupSeed, kb) & mask; ; i = (i + 1) & mask {
		at := &t.table[i]
		if at.group == 0 {
			t.pend = at
			return 0, false
		}
		if !at.isInt {
			if gr := &t.groups[at.group-1]; bytes.Equal(t.block[gr.off:gr.keyEnd], kb) {
				return int(at.group - 1), true
			}
		}
	}
}

// LookupInt returns the group whose lone INTEGER key is k. When there is
// none, ok is false and Add inserts it. The key is spread over the table
// by a multiplicative mix, its high half folded into the low bits the
// mask keeps. Unlike maphash it is not seeded, so keys chosen to collide
// could lengthen a probe; the Disk Process's table holds at most one
// reply block's groups, which bounds that to a few hundred slots.
func (t *GroupTable) LookupInt(k int64) (g int, ok bool) {
	t.room()
	at := t.islot(k)
	if at.group == 0 {
		at.key, at.isInt, t.pend = k, true, at
		return 0, false
	}
	return int(at.group - 1), true
}

// Add inserts the group the last lookup missed: key bytes kb, key values
// fields, every partial zero. It returns the new group.
func (t *GroupTable) Add(kb, fields []byte) int {
	gr := group{off: uint32(len(t.block)), part: uint32(len(t.partials))}
	t.block = append(t.block, kb...)
	gr.keyEnd = uint32(len(t.block))
	t.block = append(t.block, fields...)
	gr.end = uint32(len(t.block))
	t.partials = append(t.partials, make([]AggPartial, t.ncols)...)
	t.groups = append(t.groups, gr)
	t.pend.group, t.pend = uint32(len(t.groups)), nil
	return len(t.groups) - 1
}

// Merge folds one reply entry (AppendGroup) of cols into the table: the
// File System's half of AGG^FIRST/NEXT. A group new to the table is
// copied out of the entry, strings and all; one it holds merges the
// entry's partials into its own.
func (t *GroupTable) Merge(entry []byte, cols []AggCol) error {
	var fields []byte
	var err error
	if t.kv, fields, t.ps, err = decodeGroup(entry, len(cols), t.kv, t.ps); err != nil {
		return err
	}
	kb := t.kb[:0]
	for _, v := range t.kv {
		kb = v.AppendKey(kb)
	}
	t.kb = kb
	g, ok := t.Lookup(kb)
	if !ok {
		g = t.Add(kb, fields)
		for i, p := range t.ps {
			p.Val = own(p.Val)
			t.partials[int(t.groups[g].part)+i] = p
		}
		return nil
	}
	ps := t.Partials(g)
	for i := range ps {
		ps[i].Merge(cols[i].Fn, t.ps[i])
	}
	return nil
}

// Sort puts the groups in key-byte order: the order the Disk Process
// ships them in and the executor emits them in, so a GROUP BY is
// reproducible message for message and byte for byte. It ends lookups:
// a sorted table is read, then Reset.
func (t *GroupTable) Sort() {
	slices.SortFunc(t.groups, func(a, b group) int {
		return bytes.Compare(t.block[a.off:a.keyEnd], t.block[b.off:b.keyEnd])
	})
}

// Mark notes the groups as they stand, so that what is folded into them
// next can be undone.
func (t *GroupTable) Mark() {
	t.undo = append(t.undo[:0], t.partials...)
	t.at.block, t.at.groups = len(t.block), len(t.groups)
}

// Rewind puts the groups back as Mark found them: the partials as they
// were, and the groups added since gone. A partial is a value — a fold
// replaces a MIN/MAX string, never writes into it — so the copy Mark took
// is the state itself.
func (t *GroupTable) Rewind() {
	clear(t.partials[len(t.undo):])
	t.partials = append(t.partials[:0], t.undo...)
	t.block, t.groups = t.block[:t.at.block], t.groups[:t.at.groups]
	t.rehash(len(t.table))
}

// Slots returns the size of the hash table, which is kept at least twice
// the number of groups.
func (t *GroupTable) Slots() int { return len(t.table) }

var groupSeed = maphash.MakeSeed()

// room doubles the table when the next group would fill it past half.
func (t *GroupTable) room() {
	if 2*len(t.groups) >= len(t.table) {
		t.rehash(max(64, 2*len(t.table)))
	}
}

func (t *GroupTable) islot(k int64) *groupSlot {
	mask := uint64(len(t.table) - 1)
	h := uint64(k) * 0x9e3779b97f4a7c15
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		at := &t.table[i]
		if at.group == 0 || at.isInt && at.key == k {
			return at
		}
	}
}

// bslot is Lookup's probe for a group being placed again: the empty slot
// its key bytes lead to.
func (t *GroupTable) bslot(kb []byte) *groupSlot {
	mask := uint64(len(t.table) - 1)
	for i := maphash.Bytes(groupSeed, kb) & mask; ; i = (i + 1) & mask {
		if at := &t.table[i]; at.group == 0 {
			return at
		}
	}
}

// rehash makes the table size slots and names every group in it again: an
// int-path group by its key, a byte-path group by its key bytes. A slot
// naming a group Rewind dropped is left behind.
func (t *GroupTable) rehash(size int) {
	old := t.table
	t.table = make([]groupSlot, size)
	for _, s := range old {
		switch {
		case s.group == 0 || int(s.group) > len(t.groups):
		case s.isInt:
			*t.islot(s.key) = s
		default:
			*t.bslot(t.Key(int(s.group - 1))) = s
		}
	}
}
