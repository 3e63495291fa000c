package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/binenc"
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
// for in-process callers (Answer.Records). A decoded record's Fields is
// read-only: a remote client hands one map to every answer whose reply
// is byte-identical to an earlier one's, so a write would change those
// answers too.
type Record struct {
	Key    string            `json:"key"`
	Fields map[string]string `json:"fields,omitempty"`
}

// Answer is one decoded result as a grid.query reply's record section
// (AppendRecords' layout, pairs in engine order, a repeated name sent
// each time). Every decoder renders into one the caller hands it,
// reusing the room Enc has; it holds bytes only, so pooled scratch keeps
// no answer's text alive. A cached one is read, never written.
type Answer struct{ Enc []byte }

// Records decodes a into the map form, its strings cut from one copy of
// Enc.
func (a *Answer) Records() []Record {
	d := binenc.NewDecText(a.Enc)
	return DecodeRecords(&d)
}

// AppendRecords appends recs as a record section: count+1 (0 for nil),
// then per record its key, field count and name/value pairs.
func AppendRecords(b []byte, recs []Record) []byte {
	if recs == nil {
		return binenc.AppendUvarint(b, 0)
	}
	b = binenc.AppendUvarint(b, uint64(len(recs))+1)
	for _, r := range recs {
		b = binenc.AppendString(b, r.Key)
		b = binenc.AppendUvarint(b, uint64(len(r.Fields)))
		for k, v := range r.Fields {
			b = binenc.AppendString(b, k)
			b = binenc.AppendString(b, v)
		}
	}
	return b
}

// DecodeRecords decodes a record section, as JSON would decode the
// records: no fields is nil Fields, a repeated name keeps its last value.
func DecodeRecords(d *binenc.Dec) []Record {
	n1 := d.Uvarint()
	if n1 == 0 {
		return nil
	}
	out := make([]Record, d.Count(n1-1, 2))
	for i := range out {
		rec := &out[i]
		rec.Key = d.String()
		nf := d.Count(d.Uvarint(), 2) // a field is two length bytes at least
		if nf == 0 {
			continue
		}
		rec.Fields = make(map[string]string, nf)
		for j := 0; j < nf; j++ {
			k := d.String()
			rec.Fields[k] = d.String()
		}
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

// arena is pooled scratch where a decoder marks the values of one
// result: a string as it is, anything else appended to buf. recs lists
// each record's key mark. render writes the Answer and empties it.
type arena struct {
	buf      []byte
	marks    []mark
	recs     []int // the index in marks of each record's key
	rendered int   // the end of the last value appended to buf
}

// mark is one value of the result: a record key (which starts a new
// record) or a field of the record last started.
type mark struct {
	key      bool
	rendered bool   // the value is buf[from:to]
	from, to int    // (rendered values only)
	text     string // the value, when it is not rendered
	name     string // field name
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// keyText and fieldText mark a value that is a string already.
func (a *arena) keyText(s string) {
	a.recs = append(a.recs, len(a.marks))
	a.marks = append(a.marks, mark{key: true, text: s})
}
func (a *arena) fieldText(name, s string) { a.marks = append(a.marks, mark{name: name, text: s}) }

// keyRendered and fieldRendered mark the value the caller has just
// appended to buf.
func (a *arena) keyRendered() {
	a.recs = append(a.recs, len(a.marks))
	a.marks = append(a.marks, mark{key: true, rendered: true, from: a.rendered, to: len(a.buf)})
	a.rendered = len(a.buf)
}
func (a *arena) fieldRendered(name string) {
	a.marks = append(a.marks, mark{name: name, rendered: true, from: a.rendered, to: len(a.buf)})
	a.rendered = len(a.buf)
}

// appendValue appends m's value length-prefixed.
func (a *arena) appendValue(b []byte, m *mark) []byte {
	if !m.rendered {
		return binenc.AppendString(b, m.text)
	}
	return binenc.AppendBytes(b, a.buf[m.from:m.to])
}

// render writes the marked records into out as a record section and
// returns the arena, emptied, to the pool.
func (a *arena) render(out *Answer) {
	b := binenc.AppendUvarint(out.Enc[:0], uint64(len(a.recs))+1)
	for _, k := range a.recs {
		end := k + 1
		for end < len(a.marks) && !a.marks[end].key {
			end++
		}
		b = a.appendValue(b, &a.marks[k])
		b = binenc.AppendUvarint(b, uint64(end-k-1))
		for j := k + 1; j < end; j++ {
			b = binenc.AppendString(b, a.marks[j].name)
			b = a.appendValue(b, &a.marks[j])
		}
	}
	out.Enc = b
	a.reset()
	arenas.Put(a)
}

// reset empties a, dropping the strings its marks held. Marks are only
// appended, so none past the length holds one.
func (a *arena) reset() {
	clear(a.marks)
	a.buf, a.marks, a.recs, a.rendered = a.buf[:0], a.marks[:0], a.recs[:0], 0
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

// MDSAnswer renders MDSRecords into out, projected onto attrs the way
// LDAP projects (ldap.Entry.Keeps: a name selects an attribute in any
// case; all of them when attrs is empty). Fields keep the entry's order
// and stored spelling. The entries are read in place, so a GRIS or GIIS
// query part copies none; a single LDAP value is a string already, and
// only a multi-valued attribute is rendered, its values joined.
func MDSAnswer(out *Answer, entries []*ldap.Entry, attrs []string) {
	a := arenas.Get().(*arena)
	for _, e := range entries {
		a.keyText(e.DNString())
		for j := 0; j < e.Len(); j++ {
			if !e.Keeps(j, attrs) {
				continue
			}
			name, values := e.At(j)
			if len(values) == 1 {
				a.fieldText(name, values[0])
				continue
			}
			for i, v := range values {
				if i > 0 {
					a.buf = append(a.buf, '|')
				}
				a.buf = append(a.buf, v...)
			}
			a.fieldRendered(name)
		}
	}
	a.render(out)
}

// RGMARecords decodes a relational result: one record per row, keyed by
// position (SQL rows have no inherent identity), each column a field.
func RGMARecords(res *relational.Result) []Record { return ResultRecords("", res, nil) }

// ResultRecords is RGMARecords keeping only the columns attrs names (all
// of them when attrs is empty), each key prefixed by keyPrefix. A
// continuous query's events prefix theirs with "producerID/", so a
// subscriber can tell which producer streamed each row.
func ResultRecords(keyPrefix string, res *relational.Result, attrs []string) []Record {
	var a Answer
	ResultAnswer(&a, keyPrefix, res, attrs)
	return a.Records()
}

// ResultAnswer renders ResultRecords into out; a nil result is no
// record slice. Nothing in out points into res.
func ResultAnswer(out *Answer, keyPrefix string, res *relational.Result, attrs []string) {
	if res == nil {
		NoRecords(out)
		return
	}
	rowAnswer(out, keyPrefix, res.Columns, res.Rows, attrs)
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
	a.render(out)
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
		fields := [...]struct{ name, value string }{{"address", ad.Address}, {"table", ad.TableName}, {"predicate", ad.Predicate}}
		n := len(fields)
		if ad.Predicate == "" {
			n--
		}
		for _, f := range fields[:n] {
			if selected(attrs, f.name) {
				a.fieldText(f.name, f.value)
			}
		}
	}
	a.render(out)
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

// AdAnswer renders AdRecords into out. Sorting moves only the arena's
// list of records.
func AdAnswer(out *Answer, ads []*classad.Ad, attrs []string) {
	a := arenas.Get().(*arena)
	for _, ad := range ads {
		if ad == nil {
			continue
		}
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
	slices.SortStableFunc(a.recs, a.compareKeys)
	a.render(out)
}

// compareKeys orders two records by their keys, marked as text.
func (a *arena) compareKeys(x, y int) int { return strings.Compare(a.marks[x].text, a.marks[y].text) }

// NoRecords makes out the answer with no record slice.
func NoRecords(out *Answer) { out.Enc = binenc.AppendUvarint(out.Enc[:0], 0) }
