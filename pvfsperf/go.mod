module pvfscache/pvfsperf

go 1.24

require pvfscache v0.0.0

replace pvfscache => ../
