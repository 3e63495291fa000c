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
// and remote queries compare equal on them. A query's records are
// decoded from its reply bytes, in process or not, and every querier
// hands one map to every answer that carries a record byte-identical to
// one it decoded before. So a decoded record's Fields is read-only: a
// write would change those answers too.
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
		out[i] = DecodeRecord(d)
	}
	return out
}

// DecodeRecord decodes one record of a record section, as DecodeRecords
// decodes each.
func DecodeRecord(d *binenc.Dec) Record {
	rec := Record{Key: d.String()}
	if nf := d.Count(d.Uvarint(), 2); nf > 0 { // a field is two length bytes at least
		rec.Fields = make(map[string]string, nf)
		for j := 0; j < nf; j++ {
			k := d.String()
			rec.Fields[k] = d.String()
		}
	}
	return rec
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

// sized fills the one-byte placeholder at b[at] with the length of what
// follows it. A renderer writes its answer into out.Enc in one pass: a
// string value as it is, and a length known only after its bytes (a
// rendered value, a record's field count) as such a placeholder.
func sized(b []byte, at int) []byte { return binenc.PutUvarintAt(b, at, uint64(len(b)-at-1)) }

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
	b := binenc.AppendUvarint(out.Enc[:0], uint64(len(entries))+1)
	for _, e := range entries {
		b = binenc.AppendString(b, e.DNString())
		count, n := len(b), 0
		b = append(b, 0)
		for j := 0; j < e.Len(); j++ {
			if !e.Keeps(j, attrs) {
				continue
			}
			name, values := e.At(j)
			b = binenc.AppendString(b, name)
			n++
			if len(values) == 1 {
				b = binenc.AppendString(b, values[0])
				continue
			}
			at := len(b)
			b = append(b, 0)
			for i, v := range values {
				if i > 0 {
					b = append(b, '|')
				}
				b = append(b, v...)
			}
			b = sized(b, at)
		}
		b = binenc.PutUvarintAt(b, count, uint64(n))
	}
	out.Enc = b
}

// RGMARecords decodes a relational result: one record per row, keyed by
// position (SQL rows have no inherent identity), each column a field.
func RGMARecords(res *relational.Result) []Record {
	var a Answer
	ResultAnswer(&a, "", res, nil)
	return a.Records()
}

// ResultAnswer renders RGMARecords into out, keeping only the columns
// attrs names (all of them when attrs is empty), each key "row-NNNN"
// prefixed by keyPrefix; a nil result is no record slice. A continuous
// query's events prefix theirs with "producerID/", so a subscriber can
// tell which producer streamed each row. A string cell is plain text
// already (the field is decoded data, not a SQL literal), so only
// numbers are rendered. Nothing in out points into res.
func ResultAnswer(out *Answer, keyPrefix string, res *relational.Result, attrs []string) {
	if res == nil {
		NoRecords(out)
		return
	}
	b := binenc.AppendUvarint(out.Enc[:0], uint64(len(res.Rows))+1)
	for i, row := range res.Rows {
		at := len(b)
		b = append(append(b, 0), keyPrefix...)
		b = sized(appendRowKey(b, i), at)
		count, n := len(b), 0
		b = append(b, 0)
		for c, col := range res.Columns {
			if c >= len(row) || !selected(attrs, col) {
				continue
			}
			b = binenc.AppendString(b, col)
			n++
			if v := row[c]; v.Type == relational.StringType {
				b = binenc.AppendString(b, v.S)
			} else {
				at := len(b)
				b = sized(v.AppendTo(append(b, 0)), at)
			}
		}
		b = binenc.PutUvarintAt(b, count, uint64(n))
	}
	out.Enc = b
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
	b := binenc.AppendUvarint(out.Enc[:0], uint64(len(ads))+1)
	for _, ad := range ads {
		b = binenc.AppendString(b, ad.ProducerID)
		fields := [...]struct{ name, value string }{{"address", ad.Address}, {"table", ad.TableName}, {"predicate", ad.Predicate}}
		kept := len(fields)
		if ad.Predicate == "" {
			kept--
		}
		count, n := len(b), 0
		b = append(b, 0)
		for _, f := range fields[:kept] {
			if selected(attrs, f.name) {
				b = binenc.AppendString(binenc.AppendString(b, f.name), f.value)
				n++
			}
		}
		b = binenc.PutUvarintAt(b, count, uint64(n))
	}
	out.Enc = b
}

// HawkeyeRecords decodes ClassAds, keyed by the ad's Name attribute, each
// attribute unparsed to its expression text. Ads are sorted by key so the
// record order is deterministic regardless of pool-map iteration.
func HawkeyeRecords(ads []*classad.Ad) []Record {
	var a Answer
	AdAnswer(&a, ads, nil)
	return a.Records()
}

// AdAnswer renders HawkeyeRecords into out, keeping only the attributes
// attrs names (all of them when attrs is empty); the others are never
// rendered. Sorting moves only a pooled list of the ads and their keys.
func AdAnswer(out *Answer, ads []*classad.Ad, attrs []string) {
	p := keyedAds.Get().(*[]keyedAd)
	adAnswer(out, p, ads, attrs)
	keyedAds.Put(p)
}

// adAnswer is AdAnswer sorting in *p, which it leaves empty and holding
// no ad or key.
func adAnswer(out *Answer, p *[]keyedAd, ads []*classad.Ad, attrs []string) {
	list := (*p)[:0]
	for _, ad := range ads {
		if ad != nil {
			key, _ := ad.Eval("Name").StringVal()
			list = append(list, keyedAd{key, ad})
		}
	}
	slices.SortStableFunc(list, func(x, y keyedAd) int { return strings.Compare(x.key, y.key) })
	b := binenc.AppendUvarint(out.Enc[:0], uint64(len(list))+1)
	for _, k := range list {
		b = binenc.AppendString(b, k.key)
		count, n := len(b), 0
		b = append(b, 0)
		for i := 0; i < k.ad.Len(); i++ {
			if name, e := k.ad.At(i); selected(attrs, name) {
				b = binenc.AppendString(b, name)
				at := len(b)
				b = sized(e.AppendTo(append(b, 0)), at)
				n++
			}
		}
		b = binenc.PutUvarintAt(b, count, uint64(n))
	}
	out.Enc = b
	clear(list)
	*p = list[:0]
}

// keyedAd is an ad and its Name, as AdAnswer sorts them.
type keyedAd struct {
	key string
	ad  *classad.Ad
}

// keyedAds pools AdAnswer's lists.
var keyedAds = sync.Pool{New: func() any { return new([]keyedAd) }}

// NoRecords makes out the answer with no record slice.
func NoRecords(out *Answer) { out.Enc = binenc.AppendUvarint(out.Enc[:0], 0) }
