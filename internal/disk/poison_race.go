//go:build race

package disk

// poisonFreed: under the race detector FreeBlock poisons what it pools.
const poisonFreed = true
