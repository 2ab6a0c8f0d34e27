package store

import (
	"encoding/json"
	"slices"
)

// appendSnapshot appends the snapshot file of entries to dst: the bytes
// json.Marshal(snapshotFile{Version: snapshotVersion, Jobs: entries})
// produces, written without a reflection walk. Strings take the
// encoder's own escaping. Each entry's Data is copied verbatim when it
// is already in the form json.Marshal would give it: the journal decoded
// every Data it holds, so it is valid JSON, and bytes json.Marshal wrote
// (every record the service journals) are compact and HTML-escaped.
// Data holding whitespace or an escapable byte goes through json.Marshal,
// which compacts and escapes it.
func appendSnapshot(dst []byte, entries []JobEntry) ([]byte, error) {
	size := len(`{"version":1,"jobs":[]}`)
	for i := range entries {
		e := &entries[i]
		size += len(`{"id":"","data":,"state":"","error":"","blob":""},`) + len(e.ID) + len(e.Data) + len(e.State) + len(e.Error) + len(e.Blob)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"version":1,"jobs":`...)
	if entries == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range entries {
		e := &entries[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = appendJSONString(dst, e.ID)
		if len(e.Data) > 0 {
			dst = append(dst, `,"data":`...)
			if marshaledForm(e.Data) {
				dst = append(dst, e.Data...)
			} else {
				raw, err := json.Marshal(e.Data)
				if err != nil {
					return nil, err
				}
				dst = append(dst, raw...)
			}
		}
		dst = append(dst, `,"state":`...)
		dst = appendJSONString(dst, e.State)
		if e.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = appendJSONString(dst, e.Error)
		}
		if e.Blob != "" {
			dst = append(dst, `,"blob":`...)
			dst = appendJSONString(dst, e.Blob)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// appendJSONString appends s as json.Marshal encodes it. Printable ASCII
// without quotes, backslashes or HTML characters is copied between
// quotes; anything else (job ids and states never hold it, an error
// message may) goes through json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainInString[s[i]] {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(dst, raw...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// marshaledForm reports whether valid JSON raw is byte for byte what
// json.Marshal writes for it: no insignificant whitespace and nothing
// its HTML escaping rewrites. Whitespace inside a string also fails the
// test; that only costs the slower path.
func marshaledForm(raw []byte) bool {
	for _, c := range raw {
		if rewritten[c] {
			return false
		}
	}
	return true
}

// rewritten marks the bytes json.Marshal's compaction of a RawMessage
// may rewrite: whitespace, the HTML characters, and 0xE2, the first byte
// of U+2028 and U+2029.
var rewritten = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '<': true, '>': true, '&': true, 0xE2: true}

// plainInString marks the bytes json.Marshal copies into a string
// unchanged: printable ASCII other than the quote, the backslash and the
// HTML characters.
var plainInString = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
