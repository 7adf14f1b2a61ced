package typelang

// retained is a census of the storage an accumulator's staging pools
// hold between documents: none of it is schema state, all of it is
// clean (deeply zero) and kept only so the next document stages without
// allocating.
type retained struct {
	PooledNodes   int // staging nodes in the pool, plus the root-array staging node
	PooledRecords int // open records in the pool
	Nodes         int // accumulator nodes nested below the pooled ones (array elements, field slots)
	Groups        int // clean record groups inside the pooled nodes, at any depth
	Slots         int // clean field slots inside those groups
}

// retained walks the staging pools and counts what they hold. It is
// read-only and costs the size of the retained storage, so it is meant
// for gauges and tests, not for the absorb path; call it between
// documents, from the goroutine that owns the accumulator.
func (a *Accum) retained() retained {
	r := retained{PooledNodes: len(a.nodePool), PooledRecords: len(a.recPool)}
	for _, n := range a.nodePool {
		n.census(&r)
	}
	if a.stageArr != nil {
		r.PooledNodes++
		a.stageArr.census(&r)
	}
	return r
}

// census adds the storage retained below n (n itself excluded).
func (n *accumNode) census(r *retained) {
	if n.arr != nil {
		r.Nodes++
		n.arr.elem.census(r)
	}
	r.Groups += len(n.recs) - n.live
	for _, ra := range n.recs {
		for i := range ra.fields {
			fa := &ra.fields[i]
			if fa.seenIn == 0 {
				r.Slots++
			}
			r.Nodes++
			fa.node.census(r)
		}
	}
}
