package service

// MaxUploadBytes is maxUploadBytes, for the upload-limit test.
const MaxUploadBytes = maxUploadBytes

// NewManagerWithQueue is NewManager with a job queue depth-deep, for the
// backpressure test.
func NewManagerWithQueue(reg *Registry, cfg Config, depth int) *Manager {
	return newManager(reg, cfg, depth, maxJobs)
}

// NewManagerRetaining is NewManager retaining at most retain job records,
// for the retention test.
func NewManagerRetaining(reg *Registry, cfg Config, retain int) *Manager {
	return newManager(reg, cfg, queueDepth, retain)
}
