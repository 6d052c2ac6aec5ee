package flit

import "testing"

func TestTypeStrings(t *testing.T) {
	cases := map[Type]string{
		SingleRead:  "single-read",
		SingleWrite: "single-write",
		BlockRead:   "block-read",
		BlockWrite:  "block-write",
		Lock:        "lock",
		Unlock:      "unlock",
		Message:     "message",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
		if !typ.Valid() {
			t.Errorf("Type %v should be valid", typ)
		}
	}
	if Type(7).Valid() {
		t.Error("Type(7) should be invalid")
	}
}

func TestIsSharedMemory(t *testing.T) {
	for typ := SingleRead; typ <= Unlock; typ++ {
		if !typ.IsSharedMemory() {
			t.Errorf("%v should be shared-memory", typ)
		}
	}
	if Message.IsSharedMemory() {
		t.Error("Message should not be shared-memory")
	}
}

func TestBurstCodes(t *testing.T) {
	for _, n := range []int{1, 4, 8, 16} {
		code, err := EncodeBurst(n)
		if err != nil {
			t.Fatalf("EncodeBurst(%d): %v", n, err)
		}
		if got := DecodeBurst(code); got != n {
			t.Errorf("DecodeBurst(EncodeBurst(%d)) = %d", n, got)
		}
	}
	for _, n := range []int{0, 2, 3, 5, 7, 9, 15, 17, 32} {
		if _, err := EncodeBurst(n); err == nil {
			t.Errorf("EncodeBurst(%d) should fail", n)
		}
	}
}

func TestRoundUpBurst(t *testing.T) {
	cases := map[int]int{1: 1, 2: 4, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 16: 16, 20: 16}
	for in, want := range cases {
		if got := RoundUpBurst(in); got != want {
			t.Errorf("RoundUpBurst(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSubTypeAliases(t *testing.T) {
	if SubMsgReq != SubAddr {
		t.Error("SubMsgReq must alias SubAddr (the Data/Req bit)")
	}
	if SubMsgData != SubData {
		t.Error("SubMsgData must alias SubData")
	}
}

func TestBurstLen(t *testing.T) {
	f := Flit{Burst: 1}
	if f.BurstLen() != 4 {
		t.Errorf("BurstLen with code 1 = %d, want 4", f.BurstLen())
	}
}

func TestFlitString(t *testing.T) {
	f := Flit{DstX: 1, DstY: 2, Type: Message, Sub: SubMsgData, Src: 3}
	if s := f.String(); s == "" {
		t.Error("String() should not be empty")
	}
}
