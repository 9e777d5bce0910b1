package persist

import (
	"fmt"
	"net/url"
	"strings"
)

// schemes are the DSN schemes Open dispatches on, sorted; the error texts
// read this list, and the conformance suite runs every backend in it.
var schemes = []string{"bolt", "log", "mem"}

// Open constructs the backend a DSN names. The grammar is
//
//	<scheme>:<dir>[?<key>=<value>&...]
//
// e.g. "mem:", "log:/var/lib/coda/store", "bolt:data/darr?wal=1048576".
// The scheme picks the backend; the directory (required for durable
// backends) is where it keeps its files; query parameters tune it.
//
// "mem:" opens no backend: Open returns a nil KV and a nil error, and the
// consumer's memory is the only copy.
func Open(dsn string) (KV, error) {
	scheme, rest, ok := strings.Cut(dsn, ":")
	if !ok || scheme == "" {
		return nil, fmt.Errorf("persist: DSN %q missing scheme (known: %s)", dsn, strings.Join(schemes, ", "))
	}
	dir, query, _ := strings.Cut(rest, "?")
	params, err := url.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("persist: DSN %q: bad query: %w", dsn, err)
	}
	var kv KV
	switch scheme {
	case "mem":
		if dir != "" {
			err = fmt.Errorf("mem backend takes no directory, got %q", dir)
		}
	case "log", "bolt":
		kv, err = openWAL(scheme, dir, params)
	default:
		return nil, fmt.Errorf("persist: unknown backend scheme %q (known: %s)", scheme, strings.Join(schemes, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("persist: opening %s backend: %w", scheme, err)
	}
	return kv, nil
}
