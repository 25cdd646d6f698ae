module shareinsights/bench

go 1.22

require shareinsights v0.0.0

replace shareinsights => ../
