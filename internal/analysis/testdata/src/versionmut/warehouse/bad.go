package warehouse

// repair is not the constructor, so every write through the published
// version must be flagged.
func repair(w *Warehouse) {
	v := w.Acquire()
	v.epoch++                                 // want `write through published warehouse.Version`
	v.views = append(v.views, &VersionView{}) // want `write through published warehouse.Version`
	v.byName["q"] = &VersionView{}            // want `write through published warehouse.Version`
	delete(v.byName, "q")                     // want `delete on map of published warehouse.Version`
	clear(v.byName)                           // want `clear on map of published warehouse.Version`
	v.views[0].Extent.Insert(1)               // want `Insert on relation reached from published warehouse.VersionView`
	view := v.views[0]
	view.Name = "renamed" // want `write through published warehouse.VersionView`
	r := view.Extent
	r.Delete() // want `Delete on relation reached from published warehouse.VersionView`
}

// inspect only reads the published version: no findings.
func inspect(w *Warehouse) int {
	v := w.Acquire()
	total := v.epoch
	for _, view := range v.views {
		total += len(view.Name)
	}
	seen := map[int]bool{v.epoch: true} // index/key reads are not writes
	delete(seen, v.epoch)               // mutates the local map, not the version
	return total
}

// snapshot pins published versions into a private slice. Assigning a
// *Version INTO a container is a reference copy, not a write through the
// version; pinned here because the first dogfood run flagged exactly this
// shape.
func snapshot(ws []*Warehouse) []*Version {
	vers := make([]*Version, len(ws))
	for i, w := range ws {
		vers[i] = w.Acquire()
	}
	return vers
}

// rebuild constructs a fresh private version the legal way: hand the names
// to the constructor.
func rebuild(w *Warehouse, names []string) *Version {
	return w.publish(names)
}
