module robustset/benchmark

go 1.23

require robustset v0.0.0

replace robustset => ../
