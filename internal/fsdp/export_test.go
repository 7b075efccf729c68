package fsdp

import "nonstopsql/internal/record"

// DecodeAggSpec parses an aggregate specification into a new AggSpec.
func DecodeAggSpec(b []byte) (*AggSpec, error) {
	s := &AggSpec{}
	if err := DecodeAggSpecInto(s, b); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeGroup is decodeGroup without the key values' place.
func DecodeGroup(b []byte, ncols int, keyVals record.Row, partials []AggPartial) (record.Row, []AggPartial, error) {
	keyVals, _, partials, err := decodeGroup(b, ncols, keyVals, partials)
	return keyVals, partials, err
}
