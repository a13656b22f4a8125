// wildtype fixture: rank 0's wildcard receive has two tag-3 senders, but the
// receiver decodes a float64 vector and only rank 1 sends one. The runtime
// matcher ignores payload types, so rank 2's raw bytes can match here and be
// decoded as garbage.
package fixture

import "dampi/mpi"

func wildTypeProg(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 0:
		data, _, err := p.Recv(mpi.AnySource, 3, c) // want:wildtype want:wildcard
		if err != nil {
			return err
		}
		sum := 0.0
		for _, v := range mpi.DecodeFloat64(data) {
			sum += v
		}
		_ = sum
		if _, _, err := p.Recv(2, 3, c); err != nil {
			return err
		}
	case 1:
		if err := p.Send(0, 3, mpi.EncodeFloat64(1, 2), c); err != nil {
			return err
		}
	case 2:
		if err := p.Send(0, 3, []byte("raw"), c); err != nil {
			return err
		}
	}
	return nil
}
