package flowfile

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// detail declares one platform data detail: a key any data object may
// set, whatever its protocol and format, to steer how the platform treats
// it at run time — degradation (on_error, timeout, retries;
// docs/RESILIENCE.md) and admission (cache, max_rows; docs/SERVING.md).
// A typo in one would otherwise surface only mid-outage or as a silently
// disabled protection, so Validate rejects every bad value.
type detail struct {
	key string
	// rule is the lint rule a bad value is reported under.
	rule string
	// values lists an enumerated detail's legal values (lint's
	// did-you-mean candidates); nil for a parsed detail.
	values []string
	// want describes the legal values; valid accepts them.
	want  string
	valid func(string) bool
}

// details is the one declaration of the platform data details: Validate
// checks each value against it, lint reports a bad value under its rule,
// and the typed DataDef accessors read only values it accepts.
var details = []detail{
	enumDetail("on_error", "FL042", "fail", "stale", "empty"),
	{key: "timeout", rule: "FL042", want: "a positive duration such as 30s or 2m", valid: func(v string) bool {
		t, err := time.ParseDuration(v)
		return err == nil && t > 0
	}},
	{key: "retries", rule: "FL042", want: "a non-negative integer", valid: atLeast(0)},
	enumDetail("cache", "FL045", "on", "off"),
	{key: "max_rows", rule: "FL045", want: "a positive integer", valid: atLeast(1)},
}

func enumDetail(key, rule string, values ...string) detail {
	n := len(values) - 1
	return detail{key: key, rule: rule, values: values,
		want:  strings.Join(values[:n], ", ") + " or " + values[n],
		valid: func(v string) bool { return slices.Contains(values, v) }}
}

// atLeast accepts an integer no smaller than least.
func atLeast(least int) func(string) bool {
	return func(v string) bool {
		n, err := strconv.Atoi(v)
		return err == nil && n >= least
	}
}

// DetailKeys lists the platform data details' keys.
func DetailKeys() []string {
	keys := make([]string, len(details))
	for i, dt := range details {
		keys[i] = dt.key
	}
	return keys
}

// BadDetail is a data-detail value its declaration rejects: what lint
// needs to report it as its own finding.
type BadDetail struct {
	// Data names the data object; Value is the rejected value.
	Data, Value string
	// Reason says what the key accepts, in flow-file terms.
	Reason string
	// Legal lists the values an enumerated detail takes — the
	// did-you-mean candidates; nil for a parsed detail.
	Legal []string
}

// checkDetails reports every platform detail of d whose value its
// declaration rejects.
func (e *ValidationError) checkDetails(d *DataDef) {
	for _, dt := range details {
		v := d.Props[dt.key]
		if v == "" || dt.valid(v) {
			continue
		}
		bad := &BadDetail{Data: d.Name, Value: v, Legal: dt.values,
			Reason: fmt.Sprintf("%s must be %s (got %q)", dt.key, dt.want, v)}
		e.Problems = append(e.Problems, Problem{Line: d.Line, Rule: dt.rule, Detail: bad,
			Message: fmt.Sprintf("data object D.%s: %s", d.Name, bad.Reason)})
	}
}

// detail returns the key's value when it is set and legal, "" otherwise:
// the typed accessors below read the platform details through it, so a
// bad value (which Validate rejects before any run) reads as unset.
func (d *DataDef) detail(key string) string {
	v := d.Props[key]
	for _, dt := range details {
		if dt.key == key && v != "" && dt.valid(v) {
			return v
		}
	}
	return ""
}

// OnError is the source's degradation policy: fail (the default), stale
// or empty.
func (d *DataDef) OnError() string { return cmp.Or(d.detail("on_error"), "fail") }

// Timeout bounds each fetch attempt; 0 when unset.
func (d *DataDef) Timeout() time.Duration { return convert(d.detail("timeout"), time.ParseDuration) }

// Retries is the source's fetch retry count; ok is false when unset.
func (d *DataDef) Retries() (n int, ok bool) {
	v := d.detail("retries")
	return convert(v, strconv.Atoi), v != ""
}

// Uncached reports `cache: off`: the object opts out of cross-run
// memoization, and its dashboard out of the shared result cache.
func (d *DataDef) Uncached() bool { return d.detail("cache") == "off" }

// MaxRows caps the object's produced rows; 0 when uncapped.
func (d *DataDef) MaxRows() int { return convert(d.detail("max_rows"), strconv.Atoi) }

// convert converts a legal detail value, the zero value when unset —
// without parsing "", which costs an error allocation on every
// run-time read.
func convert[T any](v string, conv func(string) (T, error)) (t T) {
	if v != "" {
		t, _ = conv(v)
	}
	return t
}
