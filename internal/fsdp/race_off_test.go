//go:build !race

package fsdp

const raceEnabled = false
