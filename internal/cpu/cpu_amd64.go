package cpu

var avx2 = probeAVX2()

func probeAVX2() bool
