// Package gma holds the one shared shape of the Grid Monitoring
// Architecture of the Global Grid Forum: the Advertisement a Producer
// registers so that Consumers can locate it through a Registry (the
// paper's Figure 2). GMA deliberately specifies neither protocol nor data
// model; the rgma package supplies both with a relational model, exactly
// as R-GMA does.
package gma

// Advertisement is what a Producer registers: where it can be contacted
// and what data it offers. In R-GMA the offer is a table name plus a fixed
// predicate over that table's columns.
type Advertisement struct {
	// ProducerID uniquely identifies the producer instance.
	ProducerID string
	// Address locates the component serving the producer's data (in
	// R-GMA, a ProducerServlet).
	Address string
	// TableName is the relation the producer publishes.
	TableName string
	// Predicate is a SQL WHERE fragment fixing the producer's slice of
	// the table, e.g. "host = 'lucky3'". Empty means the whole table.
	Predicate string
}
