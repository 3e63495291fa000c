package ldap

import "strings"

// ProjectAll, Entry.Project, project and lowerSet are the projection a
// GRIS or GIIS "query part" ran before it read the stored entries in
// place: a fresh Entry per result, holding copies of the kept
// attributes. They stay as the oracle Entry.Keeps, ProjectedSizeBytes,
// SizeBytes(entries, attrs) and core.MDSAnswer are held to. ProjectAll is
// exported so the external tests in this directory, which can import
// core, see it too.

// ProjectAll applies Entry.Project to each entry when attrs is non-empty,
// returning the originals otherwise.
func ProjectAll(entries []*Entry, attrs []string) []*Entry {
	if len(attrs) == 0 {
		return entries
	}
	want := lowerSet(attrs) // folded once for the whole result set
	out := make([]*Entry, len(entries))
	for i, e := range entries {
		out[i] = e.project(want)
	}
	return out
}

// Project returns a copy of the entry keeping only the named attributes.
func (e *Entry) Project(attrs []string) *Entry {
	return e.project(lowerSet(attrs))
}

// lowerSet folds a projection list into the set of keys it selects.
func lowerSet(attrs []string) map[string]struct{} {
	want := make(map[string]struct{}, len(attrs))
	for _, a := range attrs {
		want[strings.ToLower(a)] = struct{}{}
	}
	return want
}

// project is Project with the attribute names already folded into keys.
func (e *Entry) project(want map[string]struct{}) *Entry {
	out := &Entry{
		DN:       e.DN,
		dnString: e.dnString,
		attrs:    make(map[string]*attrValues, len(want)),
		order:    make([]string, 0, len(want)),
	}
	for _, k := range e.order {
		if _, ok := want[k]; ok {
			av := e.attrs[k]
			out.attrs[k] = &attrValues{name: av.name, values: append([]string(nil), av.values...)}
			out.order = append(out.order, k)
		}
	}
	return out
}
