package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Exposition is the parsed form of a Prometheus text scrape: the metric
// families with their metadata plus every individual sample, in input
// order. Produced by ParseExposition, which is deliberately strict — it
// is the validation half of the format the registry writes, used by the
// CI scrape gate to fail on malformed output.
type Exposition struct {
	Families map[string]*ExpoFamily
	Samples  []ExpoSample
}

// ExpoFamily is one parsed family: HELP/TYPE metadata and its samples.
type ExpoFamily struct {
	Name, Help, Type string
	Samples          []ExpoSample
}

// ExpoSample is one `name{labels} value` line.
type ExpoSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// SeriesCount returns the number of distinct series — unique
// (name, label set) pairs — in the scrape.
func (e *Exposition) SeriesCount() int {
	seen := make(map[string]bool, len(e.Samples))
	for _, s := range e.Samples {
		seen[s.key()] = true
	}
	return len(seen)
}

// Has reports whether any sample with the given name exists (histogram
// expansions count under their _bucket/_sum/_count names as written).
func (e *Exposition) Has(name string) bool {
	for _, s := range e.Samples {
		if s.Name == name {
			return true
		}
	}
	return false
}

func (s *ExpoSample) key() string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := strings.Builder{}
	b.WriteString(s.Name)
	for _, k := range keys {
		b.WriteByte('\xff')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Labels[k])
	}
	return b.String()
}

// baseName strips a histogram suffix to its family name.
func baseName(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// ParseExposition parses and validates Prometheus text exposition format.
// It enforces what the CI scrape job gates on:
//
//   - metric and label names match the exposition charset;
//   - every family has exactly one # HELP and one # TYPE line, HELP
//     first, both before any of its samples;
//   - the TYPE is counter, gauge, histogram, summary, or untyped;
//   - sample values parse as floats; counter samples are >= 0;
//   - histogram buckets carry an "le" label, appear in strictly
//     increasing le order, have non-decreasing cumulative counts, end at
//     le="+Inf", and the +Inf bucket equals the family's _count.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Families: make(map[string]*ExpoFamily)}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows with the longest line, up to 1 MiB
	lineNo := 0
	sampleSeen := make(map[string]bool) // families that already have samples
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseMeta(e, line, sampleSeen); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := e.Families[s.Name]
		if fam == nil {
			fam = e.Families[baseName(s.Name)]
		}
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, s.Name)
		}
		if fam.Type == "counter" && s.Value < 0 {
			return nil, fmt.Errorf("line %d: counter %q has negative value %v", lineNo, s.Name, s.Value)
		}
		sampleSeen[fam.Name] = true
		fam.Samples = append(fam.Samples, s)
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range e.Families {
		if fam.Help == "" {
			return nil, fmt.Errorf("family %q has no # HELP line", fam.Name)
		}
		if fam.Type == "histogram" {
			if err := checkHistogram(fam); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

func parseMeta(e *Exposition, line string, sampleSeen map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // free-form comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 4 || fields[2] == "" {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		name := fields[2]
		if !nameRE.MatchString(name) {
			return fmt.Errorf("invalid metric name %q in HELP", name)
		}
		if f := e.Families[name]; f != nil {
			return fmt.Errorf("duplicate # HELP for %q", name)
		}
		e.Families[name] = &ExpoFamily{Name: name, Help: fields[3]}
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %q", typ, name)
		}
		f := e.Families[name]
		if f == nil {
			return fmt.Errorf("# TYPE for %q without preceding # HELP", name)
		}
		if f.Type != "" {
			return fmt.Errorf("duplicate # TYPE for %q", name)
		}
		if sampleSeen[name] {
			return fmt.Errorf("# TYPE for %q after its samples", name)
		}
		f.Type = typ
	}
	return nil
}

func parseSample(line string) (ExpoSample, error) {
	s := ExpoSample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexByte(rest, ' ')
	if brace >= 0 && (sp < 0 || brace < sp) {
		s.Name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[brace+1:end], s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		if sp < 0 {
			return s, fmt.Errorf("sample line %q has no value", line)
		}
		s.Name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !nameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	// A timestamp may follow the value; take the first field as the value.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("invalid sample value %q", rest)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair %q", body)
		}
		key := body[:eq]
		if !labelRE.MatchString(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			return fmt.Errorf("label %q value not quoted", key)
		}
		// Scan the quoted value honoring escapes.
		val := strings.Builder{}
		i := 1
		for {
			if i >= len(body) {
				return fmt.Errorf("unterminated label value for %q", key)
			}
			ch := body[i]
			if ch == '"' {
				break
			}
			if ch == '\\' {
				i++
				if i >= len(body) {
					return fmt.Errorf("dangling escape in label %q", key)
				}
				switch body[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("invalid escape \\%c in label %q", body[i], key)
				}
			} else {
				val.WriteByte(ch)
			}
			i++
		}
		if _, dup := into[key]; dup {
			return fmt.Errorf("duplicate label %q", key)
		}
		into[key] = val.String()
		body = body[i+1:]
		if len(body) > 0 {
			if body[0] != ',' {
				return fmt.Errorf("expected ',' between labels, got %q", body)
			}
			body = body[1:]
		}
	}
	return nil
}

// checkHistogram validates one histogram family: per label-set bucket
// series in increasing le order with non-decreasing cumulative counts,
// terminated by +Inf matching _count.
func checkHistogram(fam *ExpoFamily) error {
	type state struct {
		lastLE    float64
		lastCum   float64
		infSeen   bool
		infValue  float64
		countSeen bool
		count     float64
	}
	states := make(map[string]*state)
	stateOf := func(s ExpoSample) *state {
		k := ExpoSample{Name: fam.Name, Labels: withoutLE(s.Labels)}
		key := k.key()
		st := states[key]
		if st == nil {
			st = &state{lastLE: math.Inf(-1), lastCum: -1}
			states[key] = st
		}
		return st
	}
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			st := stateOf(s)
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %q bucket without le label", fam.Name)
			}
			var le float64
			if leStr == "+Inf" {
				le = math.Inf(1)
				st.infSeen, st.infValue = true, s.Value
			} else {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("histogram %q has invalid le %q", fam.Name, leStr)
				}
				le = v
			}
			if le <= st.lastLE {
				return fmt.Errorf("histogram %q buckets not in increasing le order (%v after %v)", fam.Name, le, st.lastLE)
			}
			if s.Value < st.lastCum {
				return fmt.Errorf("histogram %q bucket counts not monotone at le=%q", fam.Name, leStr)
			}
			st.lastLE, st.lastCum = le, s.Value
		case fam.Name + "_count":
			st := stateOf(s)
			st.countSeen, st.count = true, s.Value
		}
	}
	for _, st := range states {
		if !st.infSeen {
			return fmt.Errorf("histogram %q has no le=\"+Inf\" bucket", fam.Name)
		}
		if st.countSeen && st.infValue != st.count {
			return fmt.Errorf("histogram %q +Inf bucket (%v) != _count (%v)", fam.Name, st.infValue, st.count)
		}
	}
	return nil
}

func withoutLE(labels map[string]string) map[string]string {
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != "le" {
			out[k] = v
		}
	}
	return out
}
