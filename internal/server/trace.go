package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// TraceHandler serves GET /debug/trace?id=<n> from col: the span-tree
// snapshot of a recently finished trace, by the id a daemon echoes in its
// response headers (irshared's X-Trace-Id, irrouter's X-Router-Trace-Id).
// Ids that were never issued, were evicted from the bounded ring buffer, or
// have aged past the retention window all answer a clean 404 — the buffer
// is a diagnostic window, not a durable store. A nil col (tracing
// disabled) answers 404 too.
func TraceHandler(col *obs.Collector) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if col == nil {
			WriteError(w, http.StatusNotFound, CodeNotFound, "request tracing is disabled")
			return
		}
		raw := r.URL.Query().Get("id")
		id, err := strconv.ParseUint(raw, 10, 64)
		if err != nil || id == 0 {
			WriteError(w, http.StatusBadRequest, CodeBadBody, fmt.Sprintf("invalid trace id %q", raw))
			return
		}
		snap, ok := col.Get(id)
		if !ok {
			WriteError(w, http.StatusNotFound, CodeNotFound,
				fmt.Sprintf("trace %d not found (unknown, still in flight, evicted, or expired)", id))
			return
		}
		WriteJSON(w, http.StatusOK, snap)
	}
}
