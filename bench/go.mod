module acr/bench

go 1.22

require acr v0.0.0

replace acr => ../
