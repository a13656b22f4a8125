module dampi

go 1.23
