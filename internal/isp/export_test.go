package isp

// The programs of isp_test.go, for the external golden test.
var (
	Fig3Program  = fig3Program
	FanInProgram = fanInProgram
)
