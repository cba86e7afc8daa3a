package relation

import "iter"

// TupleSet maps tuples of one arity to values by row identity, through a
// KeyIndex over every column. Entries iterate in insertion order, except
// that Delete moves the last entry into the hole. The zero value is empty.
type TupleSet[V any] struct {
	ix     KeyIndex
	tuples []Tuple
	vals   []V
}

func (s *TupleSet[V]) at(p int) Tuple { return s.tuples[p] }

// find returns t's position, or -1.
func (s *TupleSet[V]) find(t Tuple) int {
	if s.ix.cols == nil {
		s.ix.cols = allCols(len(t))
	}
	return s.ix.find(t, s.at)
}

// Get returns t's value and whether the set holds t.
func (s *TupleSet[V]) Get(t Tuple) (v V, ok bool) {
	if i := s.find(t); i >= 0 {
		return s.vals[i], true
	}
	return v, false
}

// Put sets t's value, adding t if the set does not hold it.
func (s *TupleSet[V]) Put(t Tuple, v V) {
	if i := s.find(t); i >= 0 {
		s.vals[i] = v
		return
	}
	s.ix.refile(hashCells(t, s.ix.cols), -1, len(s.tuples))
	s.tuples, s.vals = append(s.tuples, t), append(s.vals, v)
}

// Delete removes t.
func (s *TupleSet[V]) Delete(t Tuple) {
	i, last := s.find(t), len(s.tuples)-1
	if i < 0 {
		return
	}
	s.ix.refile(hashCells(t, s.ix.cols), i, -1)
	if i != last {
		s.ix.refile(hashCells(s.tuples[last], s.ix.cols), last, i)
		s.tuples[i], s.vals[i] = s.tuples[last], s.vals[last]
	}
	s.tuples, s.vals = s.tuples[:last], s.vals[:last]
}

// All yields the set's tuples and their values.
func (s *TupleSet[V]) All() iter.Seq2[Tuple, V] {
	return func(yield func(Tuple, V) bool) {
		for i, t := range s.tuples {
			if !yield(t, s.vals[i]) {
				return
			}
		}
	}
}

// Clear empties the set, keeping its storage.
func (s *TupleSet[V]) Clear() {
	s.ix.reset()
	clear(s.tuples)
	s.tuples, s.vals = s.tuples[:0], s.vals[:0]
}
