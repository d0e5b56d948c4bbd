// Package a exercises the poolsafe retention and reset rules against a
// pooled scratch type modeled on the repo's shotArena/scanScratch.
package a

import "sync"

// arena is one worker's reusable scratch.
//
//qbeep:pooled
type arena struct {
	hits  []uint64
	probs []float64
	n     int
}

func (a *arena) Reset()            { a.hits = a.hits[:0] }
func (a *arena) resetCounts(n int) { a.n = n }

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

// checkouts.

func checkoutNoReset(pool chan *arena) int {
	a := <-pool // want `a is checked out of a pool without a reset`
	n := consume(a.hits)
	pool <- a
	return n
}

func checkoutTruncates(pool chan *arena) int {
	a := <-pool
	a.hits = a.hits[:0]
	n := consume(a.hits)
	pool <- a
	return n
}

func checkoutResets(pool chan *arena) int {
	a := <-pool
	a.Reset()
	n := consume(a.hits)
	pool <- a
	return n
}

func checkoutSyncPool(p *sync.Pool) int {
	a := p.Get().(*arena) // want `a is checked out of a pool without a reset`
	n := consume(a.hits)
	p.Put(a)
	return n
}

func checkoutSyncPoolReset(p *sync.Pool) int {
	a := p.Get().(*arena)
	a.resetCounts(0)
	n := consume(a.hits)
	p.Put(a)
	return n
}

func checkoutAllowed(pool chan *arena) int {
	a := <-pool //qbeep:allow-poolreset fixture: buffers proven clean by caller
	n := consume(a.hits)
	pool <- a
	return n
}
