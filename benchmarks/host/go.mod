module repligc/benchmarks/host

go 1.22

require repligc v0.0.0

replace repligc => ../..
