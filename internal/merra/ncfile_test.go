package merra

// The whole-file NC4-lite decoder. The served path reads one variable at a
// time (ExtractVariable); these read every variable, and are the oracle
// FuzzDecodeBytes and the round-trip tests hold ExtractVariable and Encode to.

// DecodeBytes parses a serialized file from memory.
func DecodeBytes(data []byte) (*File, error) {
	r, timestamp, nvars, err := openNC(data)
	if err != nil {
		return nil, err
	}
	f := &File{Time: timestamp}
	for i := uint32(0); i < nvars; i++ {
		v, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		v.Data = floats(payload)
		f.Vars = append(f.Vars, v)
	}
	return f, nil
}

// ListVariables returns the variable headers (no payload) in file order.
func ListVariables(data []byte) ([]Variable, error) {
	r, _, nvars, err := openNC(data)
	if err != nil {
		return nil, err
	}
	// Not sized by nvars: the list grows with the variables actually there.
	var out []Variable
	for i := uint32(0); i < nvars; i++ {
		v, _, err := r.next()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Var returns the named variable, or nil.
func (f *File) Var(name string) *Variable {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i]
		}
	}
	return nil
}
