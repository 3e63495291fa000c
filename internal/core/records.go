package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/classad"
	"repro/internal/gma"
	"repro/internal/ldap"
	"repro/internal/relational"
)

// Record is one decoded result record in the uniform shape shared by all
// three systems: a key identifying the record (an LDAP DN, a row key, a
// machine name) plus flat string fields. Records are what the query API
// returns, so they must survive a JSON round trip unchanged — in-process
// and remote queries compare equal on them. A server builds them only
// for in-process callers (Answer.Records).
type Record struct {
	Key    string            `json:"key"`
	Fields map[string]string `json:"fields,omitempty"`
}

// Answer is one decoded result in flat form: Recs in decoder order, each
// a key and its fields Pairs[From:To] in engine order, cut from one text
// (the arena's), so it costs at most three allocations and no map
// however many records it holds. A nil Recs is a nil record slice.
// Records is the one place a field map is built from it.
//
// An Answer can be scratch: every decoder renders into one the caller
// hands it, replacing what it held and reusing the capacity of its two
// slices (Reset), so an Answer reused from query to query costs only the
// text of each answer. Clear drops what it held before it is reused by
// someone else. An answer lent to many readers (a cached one) is read,
// never written.
type Answer struct {
	Recs  []Span
	Pairs []Pair
}

// Reset empties a for an answer of nrecs records over npairs pairs. Both
// slices come back empty and non-nil, on their own arrays when these
// have the room, else on new ones sized exactly.
func (a *Answer) Reset(nrecs, npairs int) {
	a.Recs = reuse(a.Recs, nrecs)
	a.Pairs = reuse(a.Pairs, npairs)
}

// reuse returns s emptied, never nil, with room for n elements.
func reuse[E any](s []E, n int) []E {
	if s == nil || cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
}

// SetNil makes a the answer with no record slice, keeping the pairs'
// array for the next answer rendered into a.
func (a *Answer) SetNil() {
	a.Reset(0, 0)
	a.Recs = nil
}

// Clear empties a and drops every string it held, up to the capacity of
// its slices, keeping their arrays: scratch that goes back to a pool
// keeps no answer's text alive.
func (a *Answer) Clear() {
	clear(a.Recs[:cap(a.Recs)])
	clear(a.Pairs[:cap(a.Pairs)])
	a.Recs, a.Pairs = a.Recs[:0], a.Pairs[:0]
}

// Span is one record of an Answer.
type Span struct {
	Key      string
	From, To int
}

// Pair is one field of an Answer record.
type Pair struct{ Name, Value string }

// Records builds the map form of a: one Record per span, fields keyed by
// name. A name the span repeats (SELECT host, host) keeps its last value.
func (a Answer) Records() []Record {
	if a.Recs == nil {
		return nil
	}
	out := make([]Record, len(a.Recs))
	for i, s := range a.Recs {
		fields := make(map[string]string, s.To-s.From)
		for _, p := range a.Pairs[s.From:s.To] {
			fields[p.Name] = p.Value
		}
		out[i] = Record{Key: s.Key, Fields: fields}
	}
	return out
}

// Get returns the value of the named field and whether r has it.
func (r Record) Get(name string) (string, bool) {
	v, ok := r.Fields[name]
	return v, ok
}

// Len returns how many fields r has.
func (r Record) Len() int { return len(r.Fields) }

// Each calls fn with every field of r, in no particular order, until fn
// returns false.
func (r Record) Each(fn func(name, value string) bool) {
	for name, value := range r.Fields {
		if !fn(name, value) {
			return
		}
	}
}

// SortedFieldNames lists the record's field names in sorted order — the
// canonical rendering order shared by every place records print.
func (r Record) SortedFieldNames() []string {
	names := make([]string, 0, len(r.Fields))
	for name := range r.Fields {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ProjectRecords returns copies of recs keeping only the named fields
// (nil or empty attrs returns recs unchanged). Unknown names are ignored,
// matching LDAP projection semantics.
func ProjectRecords(recs []Record, attrs []string) []Record {
	if len(attrs) == 0 {
		return recs
	}
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = Record{Key: r.Key, Fields: make(map[string]string, len(attrs))}
		for _, a := range attrs {
			if v, ok := r.Fields[a]; ok {
				out[i].Fields[a] = v
			}
		}
	}
	return out
}

// --- decoders: each system's native result shape into []Record ---

// arena is where a decoder renders the values of one result set. Every
// value is appended to buf exactly once and marked; records then turns
// buf into a single string and cuts the values out of it, so the text
// of a whole result costs one allocation however many values it holds.
// Values that are strings already are marked as they are and never
// copied. Arenas are pooled: buf and marks are scratch, only the final
// string and the records outlive a decode.
type arena struct {
	buf   []byte
	marks []mark
}

// mark is one value of the result: a record key (which starts a new
// record) or a field of the record last started.
type mark struct {
	key      bool
	rendered bool   // the value is buf[end of the previous rendered value:end]
	end      int    // (rendered values only)
	text     string // the value, when it is not rendered
	name     string // field name
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// keyText and fieldText mark a value that is a string already.
func (a *arena) keyText(s string)         { a.marks = append(a.marks, mark{key: true, text: s}) }
func (a *arena) fieldText(name, s string) { a.marks = append(a.marks, mark{name: name, text: s}) }

// keyRendered and fieldRendered mark the value the caller has just
// appended to buf.
func (a *arena) keyRendered() {
	a.marks = append(a.marks, mark{key: true, rendered: true, end: len(a.buf)})
}
func (a *arena) fieldRendered(name string) {
	a.marks = append(a.marks, mark{name: name, rendered: true, end: len(a.buf)})
}

// render replaces *out with the n marked records and returns the arena
// to the pool.
func (a *arena) render(out *Answer, n int) {
	text := string(a.buf)
	out.Reset(n, len(a.marks)-n)
	from := 0
	for i := range a.marks {
		m := &a.marks[i]
		v := m.text
		if m.rendered {
			v, from = text[from:m.end], m.end
		}
		if m.key {
			out.Recs = append(out.Recs, Span{Key: v, From: len(out.Pairs), To: len(out.Pairs)})
			continue
		}
		out.Pairs = append(out.Pairs, Pair{m.name, v})
		out.Recs[len(out.Recs)-1].To++
	}
	clear(a.marks) // drop the references to names and values
	a.marks, a.buf = a.marks[:0], a.buf[:0]
	arenas.Put(a)
}

// selected reports whether a projection keeps the named field: attrs
// empty keeps everything, otherwise the name must be listed exactly
// (the rule of ProjectRecords).
func selected(attrs []string, name string) bool {
	if len(attrs) == 0 {
		return true
	}
	for _, a := range attrs {
		if a == name {
			return true
		}
	}
	return false
}

// MDSRecords decodes LDAP entries: the record key is the DN and each
// attribute becomes a field (multi-valued attributes joined with "|").
func MDSRecords(entries []*ldap.Entry) []Record {
	var a Answer
	MDSAnswer(&a, entries, nil)
	return a.Records()
}

// MDSAnswer renders MDSRecords into out in flat form, projected onto
// attrs the way LDAP projects (ldap.Entry.Keeps: a name selects an
// attribute in any case; all of them when attrs is empty). Fields keep
// the entry's order and stored spelling. The entries are read in place,
// so a GRIS or GIIS query part copies none; LDAP values are strings
// already, so nothing is rendered.
func MDSAnswer(out *Answer, entries []*ldap.Entry, attrs []string) {
	a := arenas.Get().(*arena)
	for _, e := range entries {
		a.keyText(e.DNString())
		for j := 0; j < e.Len(); j++ {
			if !e.Keeps(j, attrs) {
				continue
			}
			name, values := e.At(j)
			a.fieldText(name, strings.Join(values, "|"))
		}
	}
	a.render(out, len(entries))
}

// RGMARecords decodes a relational result: one record per row, keyed by
// position (SQL rows have no inherent identity), each column a field.
func RGMARecords(res *relational.Result) []Record { return ResultRecords(res, nil) }

// ResultRecords is RGMARecords keeping only the columns attrs names (all
// of them when attrs is empty).
func ResultRecords(res *relational.Result, attrs []string) []Record {
	var a Answer
	ResultAnswer(&a, res, attrs)
	return a.Records()
}

// ResultAnswer renders ResultRecords into out in flat form; a nil result
// is a nil record slice. Nothing in out points into res: string cells
// are the strings res holds, and numbers are rendered into the text.
func ResultAnswer(out *Answer, res *relational.Result, attrs []string) {
	if res == nil {
		out.SetNil()
		return
	}
	rowAnswer(out, "", res.Columns, res.Rows, attrs)
}

// RowRecords decodes raw published rows (the R-GMA push path, where no
// relational.Result exists) into records keyed by producer and position,
// so a continuous query's deliveries identify which producer streamed
// each row. Only the columns attrs names are decoded (all of them when
// attrs is empty), so a buffered event holds no text it did not ask for.
func RowRecords(producerID string, cols []relational.Column, rows [][]relational.Value, attrs []string) []Record {
	names := make([]string, len(cols))
	for i, col := range cols {
		names[i] = col.Name
	}
	var a Answer
	rowAnswer(&a, producerID+"/", names, rows, attrs)
	return a.Records()
}

// rowAnswer renders rows into out as records keyed keyPrefix +
// "row-NNNN". String cells are plain text already (the field is decoded
// data, not a SQL literal); numbers and keys are rendered into the arena.
func rowAnswer(out *Answer, keyPrefix string, cols []string, rows [][]relational.Value, attrs []string) {
	a := arenas.Get().(*arena)
	for i, row := range rows {
		a.buf = appendRowKey(append(a.buf, keyPrefix...), i)
		a.keyRendered()
		for c, col := range cols {
			if c >= len(row) || !selected(attrs, col) {
				continue
			}
			if v := row[c]; v.Type == relational.StringType {
				a.fieldText(col, v.S)
			} else {
				a.buf = v.AppendTo(a.buf)
				a.fieldRendered(col)
			}
		}
	}
	a.render(out, len(rows))
}

// appendRowKey appends "row-" and i zero-padded to four digits, as
// fmt's %04d pads it.
func appendRowKey(dst []byte, i int) []byte {
	dst = append(dst, "row-"...)
	for limit := 1000; limit > 1 && i < limit; limit /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(i), 10)
}

// AdvertisementAnswer renders GMA producer advertisements (the R-GMA
// Registry's directory answer) into out, keyed by producer ID, keeping
// only the fields attrs names (all of them when attrs is empty).
func AdvertisementAnswer(out *Answer, ads []gma.Advertisement, attrs []string) {
	a := arenas.Get().(*arena)
	for _, ad := range ads {
		a.keyText(ad.ProducerID)
		fields := []Pair{{"address", ad.Address}, {"table", ad.TableName}, {"predicate", ad.Predicate}}
		if ad.Predicate == "" {
			fields = fields[:2]
		}
		for _, f := range fields {
			if selected(attrs, f.Name) {
				a.fieldText(f.Name, f.Value)
			}
		}
	}
	a.render(out, len(ads))
}

// HawkeyeRecords decodes ClassAds, keyed by the ad's Name attribute, each
// attribute unparsed to its expression text. Ads are sorted by key so the
// record order is deterministic regardless of pool-map iteration.
func HawkeyeRecords(ads []*classad.Ad) []Record { return AdRecords(ads, nil) }

// AdRecords is HawkeyeRecords keeping only the attributes attrs names
// (all of them when attrs is empty); the others are never rendered.
func AdRecords(ads []*classad.Ad, attrs []string) []Record {
	var a Answer
	AdAnswer(&a, ads, attrs)
	return a.Records()
}

// AdAnswer renders AdRecords into out in flat form. Sorting moves only
// the spans.
func AdAnswer(out *Answer, ads []*classad.Ad, attrs []string) {
	a := arenas.Get().(*arena)
	n := 0
	for _, ad := range ads {
		if ad == nil {
			continue
		}
		n++
		key, _ := ad.Eval("Name").StringVal()
		a.keyText(key)
		for i := 0; i < ad.Len(); i++ {
			name, e := ad.At(i)
			if selected(attrs, name) {
				a.buf = e.AppendTo(a.buf)
				a.fieldRendered(name)
			}
		}
	}
	a.render(out, n)
	slices.SortStableFunc(out.Recs, func(x, y Span) int { return strings.Compare(x.Key, y.Key) })
}
