module github.com/ftsfc/ftc/bench

go 1.22

require github.com/ftsfc/ftc v0.0.0

replace github.com/ftsfc/ftc => ../
