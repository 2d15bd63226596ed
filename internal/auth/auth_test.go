package auth

import (
	"errors"
	"sort"
	"testing"
	"time"

	"chaseci/internal/sim"
)

// Providers lists registered providers sorted by domain.
func (f *Federation) Providers() []Provider {
	out := make([]Provider, 0, len(f.providers))
	for _, p := range f.providers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

func newFed() (*sim.Clock, *Federation) {
	clk := sim.NewClock()
	f := NewFederation(clk, time.Hour, 1)
	f.RegisterProvider("UCSD SSO", "ucsd.edu")
	f.RegisterProvider("UC Merced SSO", "ucmerced.edu")
	return clk, f
}

func TestLoginAndValidate(t *testing.T) {
	_, f := newFed()
	tok, err := f.Login("ialtintas@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Validate(tok)
	if err != nil {
		t.Fatal(err)
	}
	if id.User != "ialtintas@ucsd.edu" || id.Provider != "UCSD SSO" {
		t.Fatalf("identity = %+v", id)
	}
}

func TestLoginUnknownProvider(t *testing.T) {
	_, f := newFed()
	if _, err := f.Login("x@nowhere.org"); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("err = %v, want ErrUnknownProvider", err)
	}
}

func TestLoginMalformedIdentity(t *testing.T) {
	_, f := newFed()
	for _, bad := range []string{"", "nodomain", "@ucsd.edu", "user@"} {
		if _, err := f.Login(bad); !errors.Is(err, ErrBadIdentity) && !errors.Is(err, ErrUnknownProvider) {
			t.Fatalf("Login(%q) err = %v", bad, err)
		}
	}
}

func TestTokenExpiry(t *testing.T) {
	clk, f := newFed()
	tok, _ := f.Login("user@ucsd.edu")
	clk.RunUntil(59 * time.Minute)
	if _, err := f.Validate(tok); err != nil {
		t.Fatalf("valid token rejected: %v", err)
	}
	clk.RunUntil(61 * time.Minute)
	if _, err := f.Validate(tok); !errors.Is(err, ErrExpiredToken) {
		t.Fatalf("err = %v, want ErrExpiredToken", err)
	}
}

func TestBadToken(t *testing.T) {
	_, f := newFed()
	if _, err := f.Validate("tok-forged"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("err = %v, want ErrBadToken", err)
	}
}

func TestTokensUnique(t *testing.T) {
	_, f := newFed()
	seen := map[Token]bool{}
	for i := 0; i < 100; i++ {
		tok, err := f.Login("user@ucsd.edu")
		if err != nil {
			t.Fatal(err)
		}
		if seen[tok] {
			t.Fatal("token reuse")
		}
		seen[tok] = true
	}
}

func TestProvidersSorted(t *testing.T) {
	_, f := newFed()
	ps := f.Providers()
	if len(ps) != 2 || ps[0].Domain != "ucmerced.edu" || ps[1].Domain != "ucsd.edu" {
		t.Fatalf("providers = %v", ps)
	}
}

func TestDomainCaseInsensitive(t *testing.T) {
	_, f := newFed()
	if _, err := f.Login("user@UCSD.EDU"); err != nil {
		t.Fatalf("uppercase domain rejected: %v", err)
	}
}

func TestLoginRefusesMalformedIdentity(t *testing.T) {
	for name, bad := range map[string]string{
		"empty": "", "no at sign": "nodomain", "no user": "@ucsd.edu", "no domain": "user@",
	} {
		t.Run(name, func(t *testing.T) {
			_, f := newFed()
			tok, err := f.Login(bad)
			if !errors.Is(err, ErrBadIdentity) {
				t.Fatalf("Login(%q) err = %v, want ErrBadIdentity", bad, err)
			}
			if tok != "" || len(f.tokens) != 0 {
				t.Fatalf("Login(%q) issued a token: %q", bad, tok)
			}
		})
	}
}

func TestTokenExpiresExactlyAtTTL(t *testing.T) {
	clk, f := newFed()
	clk.RunUntil(10 * time.Minute)
	tok, err := f.Login("user@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(10*time.Minute + time.Hour - time.Nanosecond)
	if _, err := f.Validate(tok); err != nil {
		t.Fatalf("token rejected one nanosecond before its TTL: %v", err)
	}
	clk.RunUntil(10*time.Minute + time.Hour)
	if _, err := f.Validate(tok); !errors.Is(err, ErrExpiredToken) {
		t.Fatalf("err at TTL = %v, want ErrExpiredToken", err)
	}
}

func TestIdentityRecordsIssueTime(t *testing.T) {
	clk, f := newFed()
	clk.RunUntil(7 * time.Minute)
	tok, _ := f.Login("user@ucmerced.edu")
	id, err := f.Validate(tok)
	if err != nil {
		t.Fatal(err)
	}
	if id.IssuedAt != 7*time.Minute || id.Provider != "UC Merced SSO" {
		t.Fatalf("identity = %+v", id)
	}
}

func TestReRegisteredDomainOverwrites(t *testing.T) {
	_, f := newFed()
	f.RegisterProvider("UCSD CILogon", "UCSD.edu")
	if ps := f.Providers(); len(ps) != 2 {
		t.Fatalf("providers = %v, want the domain registered once", ps)
	}
	tok, _ := f.Login("user@ucsd.edu")
	if id, _ := f.Validate(tok); id.Provider != "UCSD CILogon" {
		t.Fatalf("provider = %q, want the re-registered endpoint", id.Provider)
	}
}

func TestDefaultTTLIsTwelveHours(t *testing.T) {
	clk := sim.NewClock()
	f := NewFederation(clk, 0, 1)
	f.RegisterProvider("UCSD SSO", "ucsd.edu")
	tok, _ := f.Login("user@ucsd.edu")
	clk.RunUntil(12*time.Hour - time.Nanosecond)
	if _, err := f.Validate(tok); err != nil {
		t.Fatalf("token rejected before the 12 h default: %v", err)
	}
	clk.RunUntil(12 * time.Hour)
	if _, err := f.Validate(tok); !errors.Is(err, ErrExpiredToken) {
		t.Fatalf("err = %v, want ErrExpiredToken", err)
	}
}
