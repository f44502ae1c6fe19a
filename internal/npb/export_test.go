package npb

import "repro"

// InstanceOf exposes the connector instance behind a Reo comm to the
// external tests, for counters PipeComm does not carry.
func InstanceOf(c PipeComm) *reo.Instance { return c.(*reoComm).inst }
