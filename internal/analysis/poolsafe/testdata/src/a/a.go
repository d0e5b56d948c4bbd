// Package a exercises the poolsafe retention rule against a pooled
// scratch type modeled on the repo's shotArena/stepScratch.
package a

// arena is one worker's reusable scratch.
//
//qbeep:pooled
type arena struct {
	hits  []uint64
	probs []float64
}

func (a *arena) Reset() { a.hits = a.hits[:0] }

type result struct {
	hits []uint64
}

var global []uint64

func consume(xs []uint64) int { return len(xs) }

// retainers: every way an alias can outlive the borrow.

func returnsField(a *arena) []uint64 {
	return a.hits // want `a\.hits aliases a //qbeep:pooled buffer and is returned`
}

func returnsSlice(a *arena) []uint64 {
	return a.hits[:1] // want `a\.hits aliases a //qbeep:pooled buffer and is returned`
}

func sendsField(a *arena, ch chan []uint64) {
	ch <- a.hits // want `a\.hits aliases a //qbeep:pooled buffer and is sent on a channel`
}

func embedsField(a *arena, out []result) {
	out[0] = result{hits: a.hits} // want `a\.hits aliases a //qbeep:pooled buffer and is stored in a composite literal`
}

func storesGlobal(a *arena) {
	global = a.hits // want `a\.hits aliases a //qbeep:pooled buffer and is assigned outside the pooled value`
}

func storesIndexed(a *arena, out [][]uint64) {
	out[0] = a.hits // want `a\.hits aliases a //qbeep:pooled buffer and is assigned outside the pooled value`
}

func storesForeign(a *arena, r *result) {
	r.hits = a.hits // want `a\.hits aliases a //qbeep:pooled buffer and is assigned outside the pooled value`
}

func crossesGoroutine(a *arena) {
	go consume(a.hits) // want `a\.hits aliases a //qbeep:pooled buffer and is handed to a goroutine`
}

// borrows: all legal.

func borrows(a *arena) int {
	n := consume(a.hits)   // call argument
	hits := a.hits         // plain local alias
	hits = append(hits, 1) // grown locally
	a.hits = hits          // written back into the pooled value
	a.hits = a.hits[:0]    // truncation idiom
	if len(a.probs) > 0 {  // reads
		n += int(a.probs[0])
	}
	a.Reset() // method call on the pooled value
	return n
}

// allowRetain is the audited escape hatch.
func allowRetain(a *arena, out []result) {
	out[0] = result{hits: a.hits} //qbeep:allow-poolretain fixture: deliberate hand-off
}
