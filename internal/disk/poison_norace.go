//go:build !race

package disk

const poisonFreed = false
