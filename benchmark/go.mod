module pstore/benchmark

go 1.22

require pstore v0.0.0

replace pstore => ../
