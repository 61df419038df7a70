package seq

import (
	"fmt"
	"io"
)

// WriteFASTA renders sequences in FASTA format with 60-column wrapping.
func WriteFASTA(w io.Writer, seqs []*Seq) error {
	for _, s := range seqs {
		header := ">" + s.ID
		if s.Desc != "" {
			header += " " + s.Desc
		}
		if _, err := fmt.Fprintln(w, header); err != nil {
			return err
		}
		letters := s.Letters()
		for len(letters) > 0 {
			n := 60
			if n > len(letters) {
				n = len(letters)
			}
			if _, err := fmt.Fprintln(w, letters[:n]); err != nil {
				return err
			}
			letters = letters[n:]
		}
	}
	return nil
}
