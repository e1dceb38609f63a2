package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"ibpower/internal/stats"
)

// writeTimeSeries emits the recorder to the -timeseries destination, and
// does nothing when the flag is unset. The JSON document is a deterministic
// function of the simulation, so its bytes are bit-identical at any
// -parallel setting.
func (s *sim) writeTimeSeries(ts *stats.TimeSeries) error {
	path := s.timeseries
	if path == "" {
		return nil
	}
	if ts == nil {
		return fmt.Errorf("ibpower: run recorded no telemetry")
	}
	var buf bytes.Buffer
	var err error
	if strings.HasSuffix(path, ".prom") {
		err = ts.WriteProm(&buf, "")
	} else {
		err = ts.WriteJSON(&buf)
	}
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
