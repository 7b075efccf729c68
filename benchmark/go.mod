module nonstopsql/benchmark

go 1.22

require nonstopsql v0.0.0

replace nonstopsql => ../
