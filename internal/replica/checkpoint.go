package replica

import (
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/durable"
)

// CheckpointSource yields the leader's latest on-disk checkpoint.
// durable.CheckpointDir implements it over a durable directory.
type CheckpointSource interface {
	OpenCheckpoint() (*durable.CheckpointFile, error)
}

// CheckpointHandler returns the checkpoint-shipping endpoint,
// conventionally mounted at GET /v1/checkpoint. It streams the
// complete framed checkpoint file — the wal checkpoint header followed
// by the core snapshot, both CRC-protected — exactly as
// durable.InstallCheckpoint expects it. 404 until the leader has
// written a checkpoint. The sequence it covers travels only inside the
// CRC-protected header in the body.
func CheckpointHandler(src CheckpointSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			httpError(w, http.StatusMethodNotAllowed, "method not allowed", "")
			return
		}
		cf, err := src.OpenCheckpoint()
		if errors.Is(err, durable.ErrNoCheckpoint) {
			httpError(w, http.StatusNotFound, "no checkpoint yet",
				"the leader has not completed a checkpoint; retry after one is written")
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, "checkpoint unreadable", err.Error())
			return
		}
		defer cf.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(cf.Size(), 10))
		w.WriteHeader(http.StatusOK)
		io.Copy(w, cf)
	})
}
