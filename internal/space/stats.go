package space

import (
	"math/rand"

	"repro/internal/misd"
	"repro/internal/relation"
)

func relationInfoFor(source string, r *relation.Relation) misd.RelationInfo {
	return misd.RelationInfo{
		Ref:    misd.RelRef{Source: source, Rel: r.Name},
		Schema: r.Schema(),
		Card:   r.Card(),
	}
}

// Populate fills an open relation with card random integer tuples drawn
// from [0, domain) per attribute, using the supplied deterministic source. A
// small domain yields many join matches (high effective join selectivity);
// a large domain yields few. It returns Insert's error, relation.ErrSealed
// for a sealed relation.
func Populate(r *relation.Relation, card int, domain int64, rng *rand.Rand) error {
	arity := r.Schema().Len()
	for r.Card() < card {
		t := make(relation.Tuple, arity)
		for i := range t {
			t[i] = relation.Int(rng.Int63n(domain))
		}
		if err := r.Insert(t); err != nil {
			return err
		}
	}
	return nil
}

// PopulateSubset fills dst with a random subset of src's tuples of the given
// cardinality (projecting onto dst's schema attribute names, which must all
// exist in src). Used by scenario builders to realize PC subset constraints
// in actual data.
func PopulateSubset(dst, src *relation.Relation, card int, rng *rand.Rand) error {
	proj, err := src.Project(dst.Schema().Names()...)
	if err != nil {
		return err
	}
	tuples := append([]relation.Tuple(nil), proj.Tuples()...)
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	if card > len(tuples) {
		card = len(tuples)
	}
	for _, t := range tuples[:card] {
		if err := dst.Insert(t); err != nil {
			return err
		}
	}
	return nil
}

// PopulateSuperset copies all of src (projected onto dst's schema) into dst
// and then pads dst with extra random tuples up to the given cardinality.
func PopulateSuperset(dst, src *relation.Relation, card int, domain int64, rng *rand.Rand) error {
	proj, err := src.Project(dst.Schema().Names()...)
	if err != nil {
		return err
	}
	for _, t := range proj.Tuples() {
		if err := dst.Insert(t); err != nil {
			return err
		}
	}
	return Populate(dst, card, domain, rng)
}

// RandomTuple draws a uniformly random tuple from the relation, or nil when
// empty. Used by the update generators of the workload models.
func RandomTuple(r *relation.Relation, rng *rand.Rand) relation.Tuple {
	if r.Card() == 0 {
		return nil
	}
	return r.Row(rng.Intn(r.Card()))
}
