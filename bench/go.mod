module github.com/paper-repro/pdsat-go/bench

go 1.24

require github.com/paper-repro/pdsat-go v0.0.0

replace github.com/paper-repro/pdsat-go => ../
