package sqldb

import (
	"sync"
	"sync/atomic"
)

// stmtCacheSize bounds how many parsed statements one DB keeps. A
// program passes its values as ? arguments, so its distinct SQL texts
// are its literal statements: a few dozen. A caller that splices values
// into the text instead fills the cache, which is then emptied and
// refilled, so memory stays bounded and such a caller pays no more than
// a parse per call, as it would without the cache.
const stmtCacheSize = 256

// stmtsParsed counts parses made through statement caches, process-wide.
// Only misses add to it, so the hit path carries no atomic; under steady
// traffic it stays flat once every text of the program has been seen.
var stmtsParsed atomic.Int64

// StmtsParsed reports how many SQL texts the databases of this process
// have parsed for Exec and ExecReadOnly: the statement-cache misses. A
// count that keeps rising under steady traffic means the cache is
// thrashing.
func StmtsParsed() int64 { return stmtsParsed.Load() }

// stmtCache maps SQL text to its parsed statement. parse is a pure
// function of the text: it reads no schema, and executing a statement
// never writes to it, so one parsed statement serves any number of
// concurrent executions and needs no invalidation when DDL changes the
// schema. Hits are a sync.Map load, so readers under the DB's shared
// lock do not contend on a second mutex; misses serialize on mu to keep
// the count exact.
type stmtCache struct {
	m  sync.Map // string → stmt
	mu sync.Mutex
	n  int // entries in m; guarded by mu
}

// get returns the parsed statement for query, parsing it on a miss.
// Only successful parses are cached: a text that fails to parse fails
// again, with the same error, on every call.
func (c *stmtCache) get(query string) (stmt, error) {
	if st, ok := c.m.Load(query); ok {
		return st.(stmt), nil
	}
	stmtsParsed.Add(1)
	st, err := parse(query)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.n >= stmtCacheSize {
		c.m.Range(func(k, _ any) bool {
			c.m.Delete(k)
			return true
		})
		c.n = 0
	}
	if _, loaded := c.m.LoadOrStore(query, st); !loaded {
		c.n++
	}
	c.mu.Unlock()
	return st, nil
}
