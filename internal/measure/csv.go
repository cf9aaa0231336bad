package measure

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// WriteCDFCSV writes named distributions as a long-format CSV with
// columns (series, fraction, delay_ms) — the file a plotting script needs
// to redraw Figs. 3 and 4.
func WriteCDFCSV(w io.Writer, names []string, dists []Distribution, points int) error {
	if len(names) != len(dists) {
		return fmt.Errorf("measure: %d names for %d distributions", len(names), len(dists))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "fraction", "delay_ms"}); err != nil {
		return err
	}
	for i, d := range dists {
		for _, p := range d.CDF(points) {
			rec := []string{
				names[i],
				strconv.FormatFloat(p.Fraction, 'f', 4, 64),
				strconv.FormatFloat(float64(p.Value)/float64(time.Millisecond), 'f', 3, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
