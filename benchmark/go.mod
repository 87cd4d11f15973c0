module lwcomp/benchmark

go 1.24

require lwcomp v0.0.0

replace lwcomp => ../
