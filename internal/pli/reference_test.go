package pli

// intersectMap is the historical hash-map grouping implementation: one
// map[int32][]int32 per call, one heap copy per surviving group. It is
// kept as a reference engine — the property suite and FuzzArenaIntersect
// check the Arena path against it as well as against FromAttrs. It builds
// its own row -> cluster map from Cluster(), so it never reads the probe
// the engine under test reads.
func intersectMap(p, q *Partition) *Partition {
	if p.n != q.n {
		panic("pli: intersecting partitions over different relations")
	}
	// Iterate the smaller operand for speed; intersection is symmetric.
	if q.Size() < p.Size() {
		p, q = q, p
	}
	probe := make([]int32, q.n)
	for i := range probe {
		probe[i] = -1
	}
	for ci := 0; ci < q.NumClusters(); ci++ {
		for _, tid := range q.Cluster(ci) {
			probe[tid] = int32(ci)
		}
	}
	var clusters [][]int32
	groups := make(map[int32][]int32)
	for ci := 0; ci < p.NumClusters(); ci++ {
		for _, tid := range p.Cluster(ci) {
			qi := probe[tid]
			if qi < 0 {
				continue // singleton in q => singleton in the intersection
			}
			groups[qi] = append(groups[qi], tid)
		}
		for qi, g := range groups {
			if len(g) >= 2 {
				cp := make([]int32, len(g))
				copy(cp, g)
				clusters = append(clusters, cp)
			}
			delete(groups, qi)
		}
	}
	sortClusters(clusters)
	return fromClusters(p.n, clusters)
}
