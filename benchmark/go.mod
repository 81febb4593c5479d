module laar/benchmark

go 1.22

require laar v0.0.0

replace laar => ../
