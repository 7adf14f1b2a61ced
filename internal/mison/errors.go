package mison

import "fmt"

// IndexError reports a structural defect the projecting Parser's index
// found in a record, with the absolute byte offset of the offending
// position. Absolute means relative to the same stream the caller's
// other offsets use: BuildIndexAt and ParseLines thread a base offset
// through, so error attribution lines up exactly with the
// jsontext.SyntaxError offsets of the reference lexer.
type IndexError struct {
	// Offset is the absolute byte offset of the defect.
	Offset int
	// Msg describes the defect.
	Msg string
}

func (e *IndexError) Error() string {
	return fmt.Sprintf("mison: %s at offset %d", e.Msg, e.Offset)
}
