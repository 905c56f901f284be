module distenc/benchmark

go 1.24

require distenc v0.0.0

replace distenc => ../
