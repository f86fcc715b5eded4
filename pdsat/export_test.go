package pdsat

import "time"

// SetMaxSampleEventsForTest overrides the per-batch SampleProgress budget
// so tests can exercise the decimation on small, fast batches.  It returns
// a restore function.
func SetMaxSampleEventsForTest(n int) (restore func()) {
	old := maxSampleEvents
	maxSampleEvents = n
	return func() { maxSampleEvents = old }
}

// SetMaxFinishedJobsForTest lowers the bound on retained finished jobs so a
// test can flood a session past it.  It returns a restore function.
func SetMaxFinishedJobsForTest(n int) (restore func()) {
	old := maxFinishedJobs
	maxFinishedJobs = n
	return func() { maxFinishedJobs = old }
}

// SetSSEKeepAliveIntervalForTest shortens the SSE keep-alive interval so
// tests can observe idle-stream comments without waiting half a minute.  It
// returns a restore function.
func SetSSEKeepAliveIntervalForTest(d time.Duration) (restore func()) {
	old := sseKeepAliveInterval
	sseKeepAliveInterval = d
	return func() { sseKeepAliveInterval = old }
}

// WriteJSONForTest is the server's response writer.
var WriteJSONForTest = writeJSON
