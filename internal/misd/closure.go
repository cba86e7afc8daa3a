package misd

// compose combines two containment relations along a chain
// A θ1 B, B θ2 C ⇒ A θ C. Mixed directions (⊆ then ⊇ or vice versa) leave
// the endpoints incomparable, reported as (Equal, false).
func compose(a, b Rel) (Rel, bool) {
	switch {
	case a == Equal:
		return b, true
	case b == Equal:
		return a, true
	case a == b:
		return a, true
	default:
		return Equal, false
	}
}

// DerivePCClosure computes the transitive closure of the stored
// whole-fragment PC constraints and adds the derived constraints to the
// MKB. Two constraints chain when the right fragment of the first and the
// left fragment of the second are over the same relation and the attribute
// lists compose (the first's right projection feeds the second's left
// projection positionally through shared attribute names).
//
// Only selection-free fragments participate: a selection on the middle
// relation breaks transitivity in general. The closure lets the
// synchronizer find replacements that are only indirectly related to a
// dropped relation — e.g. two replicas S and T of the same base R imply
// S ≡ T even after R disappears.
//
// The method is idempotent and returns the number of constraints added.
func (m *MKB) DerivePCClosure() int {
	added := 0
	// Iterate to a fixpoint; the constraint set is small in practice.
	for {
		newOnes := m.deriveOnce()
		if newOnes == 0 {
			return added
		}
		added += newOnes
	}
}

func (m *MKB) deriveOnce() int {
	// Collect every directed constraint (stored plus reversed views).
	var all []PCConstraint
	for _, pc := range m.pcs {
		all = append(all, pc, pc.Reversed())
	}
	have := map[string]bool{}
	for _, pc := range all {
		have[pcKey(pc)] = true
	}
	added := 0
	for _, ab := range all {
		if ab.Left.HasSelection() || ab.Right.HasSelection() {
			continue
		}
		for _, bc := range all {
			if bc.Left.HasSelection() || bc.Right.HasSelection() {
				continue
			}
			if ab.Right.Rel.Key() != bc.Left.Rel.Key() {
				continue
			}
			if ab.Left.Rel.Key() == bc.Right.Rel.Key() {
				continue // would relate a relation to itself
			}
			rel, ok := compose(ab.Rel, bc.Rel)
			if !ok {
				continue
			}
			// Compose the attribute correspondences: for each pair
			// (a_i -> b_i) of ab, find b_i in bc's left list and map to
			// bc's right counterpart. Attributes without a continuation
			// are dropped; an empty composition is no constraint.
			bcMap := bc.AttrMapping()
			var leftAttrs, rightAttrs []string
			for i, a := range ab.Left.Attrs {
				bAttr := ab.Right.Attrs[i]
				cAttr, ok := bcMap[bAttr]
				if !ok {
					continue
				}
				leftAttrs = append(leftAttrs, a)
				rightAttrs = append(rightAttrs, cAttr)
			}
			if len(leftAttrs) == 0 {
				continue
			}
			derived := PCConstraint{
				Left:  Fragment{Rel: ab.Left.Rel, Attrs: leftAttrs},
				Right: Fragment{Rel: bc.Right.Rel, Attrs: rightAttrs},
				Rel:   rel,
			}
			k := pcKey(derived)
			if have[k] || have[pcKey(derived.Reversed())] {
				continue
			}
			// Skip if an existing constraint already relates the pair
			// over any attribute set; the first recorded constraint wins,
			// keeping the closure conservative.
			if _, exists := m.PCBetween(derived.Left.Rel.Key(), derived.Right.Rel.Key()); exists {
				continue
			}
			m.pcs = append(m.pcs, derived)
			m.pcGen++
			have[k] = true
			added++
		}
	}
	return added
}

// pcKey fingerprints a constraint for closure deduplication.
func pcKey(pc PCConstraint) string {
	k := pc.Left.Rel.Key() + "|" + pc.Right.Rel.Key() + "|" + pc.Rel.String()
	for i := range pc.Left.Attrs {
		k += "|" + pc.Left.Attrs[i] + ">" + pc.Right.Attrs[i]
	}
	return k
}
