package distengine

// Frame-type byte values exported to the external test package so chaos
// fault scripts can name exact protocol points (transport/faulty deals
// in raw frame bytes).
const (
	TFrameJob            = byte(frameJob)
	TFrameReduce         = byte(frameReduce)
	TFrameReduceResult   = byte(frameReduceResult)
	TFrameGather         = byte(frameGather)
	TFrameGatherResult   = byte(frameGatherResult)
	TFrameExchange       = byte(frameExchange)
	TFrameExchangeResult = byte(frameExchangeResult)
	TFrameResult         = byte(frameResult)
	TFramePing           = byte(framePing)
	TFramePong           = byte(framePong)
	TFrameExchangeMax    = byte(frameExchangeMax)
)
