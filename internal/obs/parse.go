package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParsedFamily is one metric family recovered from a Prometheus text
// exposition by ParseText.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples map[string]float64 // full sample name (with labels) -> value
}

// ParseText parses the Prometheus text exposition format (the subset
// WriteText emits, which is the subset any compliant scraper accepts):
// HELP/TYPE comment lines and `name{labels} value` samples. It verifies that
// every sample belongs to a declared family (histogram _bucket/_sum/_count
// suffixes included) and that every family declares both HELP and TYPE.
// Tests and the load harness's server scrape (make load-smoke) use it to
// assert a scrape is well-formed.
func ParseText(r io.Reader) (map[string]*ParsedFamily, error) {
	fams := map[string]*ParsedFamily{}
	haveHelp := map[string]bool{}
	haveType := map[string]bool{}
	get := func(name string) *ParsedFamily {
		f, ok := fams[name]
		if !ok {
			f = &ParsedFamily{Name: name, Samples: map[string]float64{}}
			fams[name] = f
		}
		return f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineno, err)
			}
			if kind == "" {
				continue // free-form comment
			}
			f := get(name)
			switch kind {
			case "HELP":
				f.Help = rest
				haveHelp[name] = true
			case "TYPE":
				f.Type = rest
				haveType[name] = true
			}
			continue
		}
		sample, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineno, err)
		}
		base := sample
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		famName := base
		if _, ok := fams[famName]; !ok {
			// Histogram sample suffixes attach to their declared family.
			trimmed := false
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(base, suf) {
					if _, ok := fams[strings.TrimSuffix(base, suf)]; ok {
						famName = strings.TrimSuffix(base, suf)
						trimmed = true
						break
					}
				}
			}
			if !trimmed {
				return nil, fmt.Errorf("line %d: sample %q has no preceding HELP/TYPE family", lineno, sample)
			}
		}
		get(famName).Samples[sample] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name := range fams {
		if !haveHelp[name] {
			return nil, fmt.Errorf("family %s: missing HELP line", name)
		}
		if !haveType[name] {
			return nil, fmt.Errorf("family %s: missing TYPE line", name)
		}
	}
	return fams, nil
}

// parseComment dissects `# HELP name text` / `# TYPE name type` lines;
// returns kind "" for other comments.
func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	switch {
	case strings.HasPrefix(body, "HELP "):
		kind = "HELP"
		body = strings.TrimPrefix(body, "HELP ")
	case strings.HasPrefix(body, "TYPE "):
		kind = "TYPE"
		body = strings.TrimPrefix(body, "TYPE ")
	default:
		return "", "", "", nil
	}
	parts := strings.SplitN(body, " ", 2)
	if parts[0] == "" {
		return "", "", "", fmt.Errorf("malformed %s line: %q", kind, line)
	}
	name = parts[0]
	if len(parts) == 2 {
		rest = parts[1]
	}
	if kind == "TYPE" {
		switch rest {
		case typeCounter, typeGauge, typeHistogram, "summary", "untyped":
		default:
			return "", "", "", fmt.Errorf("unknown metric type %q", rest)
		}
	}
	return kind, name, rest, nil
}

// parseSample splits `name{labels} value` into the full sample name and its
// parsed float value, validating brace balance.
func parseSample(line string) (string, float64, error) {
	cut := -1
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", 0, fmt.Errorf("malformed sample %q", line)
		}
		cut = j + 1
	} else {
		cut = strings.IndexAny(line, " \t")
	}
	if cut < 0 || cut >= len(line) {
		return "", 0, fmt.Errorf("sample %q has no value", line)
	}
	name := strings.TrimSpace(line[:cut])
	valStr := strings.TrimSpace(line[cut:])
	// Timestamps (a second field) are not emitted by WriteText; reject them
	// rather than silently misparse.
	if strings.ContainsAny(valStr, " \t") {
		return "", 0, fmt.Errorf("sample %q has trailing fields", line)
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", 0, fmt.Errorf("sample %q: bad value: %v", line, err)
	}
	return name, v, nil
}

// FamilyNames returns the parsed family names in sorted order (test helper).
func FamilyNames(fams map[string]*ParsedFamily) []string {
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
